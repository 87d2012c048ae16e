"""Executable checks for every in-scope statement, plus counterexample search.

Every statement is one row of `STATEMENTS`: its id, its description, the
sweep that checks it, the sweep's arguments and the static notes of its
report.  Twenty-seven rows run over six shared sweeps (an implication over the
universe pairs, the extension-ring transfer, the McCoy tensor transfer,
direct sums, an independent re-derivation per pair or algebra, and one per
part of a small pair); the other six have sweeps of their own.  A sweep
visits the universe members satisfying the statement's hypotheses, evaluates
its conclusion, and reports pass/fail with re-checkable witnesses.  Most
sweeps keep their books through `StatementReport.visit`; `_partwise`, lem-2.7
and def-2.11's inline re-derivation keep their own.  A statement never
asserts on members failing its hypotheses, and zero applicable members
surfaces as a warning instead of a silent pass.

Hypotheses and conclusions are named by one predicate vocabulary, which the
counterexample `search` reads too.

Extension-ring statements quantify over the ideal lattice: a polynomial or
series element is a zero-divisor on M[G] exactly when its content ideal kills
a nonzero element of M, so content depends only on the ideal generated by the
coefficients and one representative element per lattice ideal covers every
finitely supported element.
"""

from __future__ import annotations

import fnmatch
import functools
import itertools
from dataclasses import dataclass, field

from .encoding import to_jsonable
from .errors import BoundExceeded
from .extensions import (brute_force_zd, diagonal_algebra,
                         is_mccoy_algebra, is_ohm_rush,
                         is_zd_on_extension, mccoy_witness, module_poly,
                         ring_poly, ring_series)
from .localize import (localize, localize_module, localized_ring_as_base_module,
                       natural_map_kernel)
from .modules import (all_submodules, ann, content_of_element,
                      content_surjective, cyclic_module, direct_sum,
                      has_property_A, hom_module, ideal_action,
                      is_auslander, is_content_module, is_faithfully_flat,
                      is_flat, is_torsion_free, tensor_with_algebra,
                      zero_divisors_module)
from .rings import (Zmod, all_mult_closed_subsets, ideal_generated,
                    product_ring, ring_predicates)
from .universe import Z_ADAPTER_MAX, Universe, ZAdapterCase, z_adapter_cases


@dataclass
class StatementReport:
    """Outcome of one statement over the universe."""

    id: str
    description: str
    applicable: list = field(default_factory=list)
    checked: int = 0
    failures: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.failures

    def visit(self, member: str, failure: dict | None = None) -> bool:
        """Count `member` as applicable and checked; a `failure`'s fields are
        recorded under its name.  Whether it passed."""
        self.applicable.append(member)
        self.checked += 1
        if failure is not None:
            self.failures.append({"member": member, **failure})
        return failure is None

    def finish(self) -> "StatementReport":
        if not self.applicable:
            self.warnings.append("no applicable members: statement not exercised")
        return self

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "description": self.description,
            "passed": self.passed,
            "applicable_count": len(self.applicable),
            "checked": self.checked,
            "applicable": list(self.applicable),
            "failures": to_jsonable(self.failures),
            "notes": list(self.notes),
            "warnings": list(self.warnings),
            "extra": to_jsonable(self.extra),
        }


def _member(R, M) -> str:
    return f"{R.descriptor} :: {M.tag}"


def witness_entry(kind, *, ring=None, module=None, algebra=None, value=None,
                  display="", variant=None) -> dict:
    entry = {"kind": kind, "display": display, "value": to_jsonable(value)}
    if ring is not None:
        entry["ring"] = ring.descriptor
    if module is not None:
        entry["module"] = module.tag
    if algebra is not None:
        entry["algebra"] = algebra.descriptor
    if variant is not None:
        entry["variant"] = variant
    return entry


def _nonzero_pairs(U: Universe):
    for R, M in U.pairs():
        if not M.is_zero:
            yield R, M


def _memo(U: Universe, key, compute):
    """U.caches[key], computed on first use; an exception is not cached."""
    if key not in U.caches:
        U.caches[key] = compute()
    return U.caches[key]


# ---------------------------------------------------------------------------
# predicate vocabulary, shared by the statement sweeps and `search`
#
# Each entry returns a truth value (a Verdict or a bool).  Entries look their
# predicates up in this module's globals when called, so a patched or traced
# predicate reaches every caller.


_PAIR_VOCABULARY = {
    "auslander": lambda U, R, M: is_auslander(M),
    "torsion_free": lambda U, R, M: is_torsion_free(M),
    "flat": lambda U, R, M: is_flat(M, budget=U.limits.presentation_budget),
    "faithfully_flat": lambda U, R, M: is_faithfully_flat(
        M, budget=U.limits.presentation_budget),
    "content_module": lambda U, R, M: is_content_module(M),
    "content_surjective": lambda U, R, M: content_surjective(M),
    "property_a": lambda U, R, M: has_property_A(M),
    "zero_annihilator": lambda U, R, M: ann(M).is_zero,
    "reg_module": lambda U, R, M: M.tag == "Reg",
    "nonzero": lambda U, R, M: not M.is_zero,
    "domain": lambda U, R, M: ring_predicates(R).is_domain,
    "field": lambda U, R, M: ring_predicates(R).is_field,
    "local": lambda U, R, M: ring_predicates(R).is_local,
}

_ALGEBRA_VOCABULARY = {
    "mccoy": lambda U, alg: is_mccoy_algebra(alg),
    "ohm_rush": lambda U, alg: is_ohm_rush(alg),
    "flat": lambda U, alg: is_flat(alg.as_module(),
                                   budget=U.limits.presentation_budget),
    "faithfully_flat": lambda U, alg: is_faithfully_flat(
        alg.as_module(), budget=U.limits.presentation_budget),
    "nontrivial_extension": lambda U, alg: not alg.is_trivial_extension,
}


# the integer adapter's facts, keyed by the vocabulary's names; `_implication`
# and `search` both read them
_ADAPTER_FACTS = {
    # Z/n over Z for n >= 2; flatness and friends are analytic facts
    "quotient": {
        "auslander": True, "torsion_free": False, "reg_module": False,
        "nonzero": True, "domain": True, "field": False, "local": False,
        "flat": False, "faithfully_flat": False, "property_a": True,
        "zero_annihilator": False,
    },
    # Z over itself
    "regular": {
        "auslander": True, "torsion_free": True, "reg_module": True,
        "nonzero": True, "domain": True, "field": False, "local": False,
        "flat": True, "faithfully_flat": True, "property_a": True,
        "content_module": True, "content_surjective": True,
        "zero_annihilator": True,
    },
}


def _adapter_members(z_label: str = "Z"):
    """(facts, member names) of the integer adapter: Z/n over Z, then Z over
    itself, named `z_label`."""
    return ((_ADAPTER_FACTS["quotient"],
             [f"Z :: {case.case_id}" for case in z_adapter_cases()]),
            (_ADAPTER_FACTS["regular"], [f"Z :: {z_label}"]))


def _meets(rep: StatementReport, U: Universe, R, M, hyp) -> bool:
    """Whether (R, M) meets every named hypothesis; a bound hit is a noted skip."""
    try:
        return all(_PAIR_VOCABULARY[name](U, R, M) for name in hyp)
    except BoundExceeded as exc:
        rep.notes.append(f"skipped {_member(R, M)}: {exc}")
        return False


def _check(rep: StatementReport, member: str, concl, U: Universe, R, X) -> bool:
    """Visit `member`, checked on X; a failing conclusion is a failure."""
    for name in concl:
        verdict = _PAIR_VOCABULARY[name](U, R, X)
        if not verdict:
            return rep.visit(member, {"witness": verdict.witness})
    return rep.visit(member)


# ---------------------------------------------------------------------------
# shared sweeps


def _implication(U: Universe, rep: StatementReport, hyp, concl, hom=False,
                 adapter=None):
    """Every nonzero pair meeting `hyp` satisfies `concl`, on M itself or, with
    `hom`, on its module of linear self-maps.

    `adapter`, the name of Z over itself, adds the integer-adapter members
    that meet `hyp`, deciding them by their analytic facts."""
    for R, M in _nonzero_pairs(U):
        if not _meets(rep, U, R, M, hyp):
            continue
        X = M
        if hom:
            try:
                X = _memo(U, ("hom", R.descriptor, M.tag),
                          lambda: hom_module(M, budget=U.limits.hom_budget))
            except BoundExceeded:
                rep.notes.append(f"skipped {_member(R, M)}: hom budget")
                continue
        _check(rep, _member(R, M), concl, U, R, X)
    if adapter is not None:
        for facts, members in _adapter_members(adapter):
            if all(facts.get(name, False) for name in hyp):
                holds = all(facts.get(name, False) for name in concl)
                for member in members:
                    rep.visit(member, None if holds else {})


def _ext_profile(U: Universe, R, M, variant: str):
    """(auslander_ext, tf_ext, witnesses) for M[G] / M[[X]] over R[G] / R[[X]]."""
    reg = U.regular(R)
    ausl, tf = True, True
    ausl_wit = tf_wit = None
    for I in R.ideals():
        gens = I.small_generators()
        support = {(i,): g for i, g in enumerate(gens)}
        if variant == "monoid":
            f = ring_poly(R, support)
        else:
            f = ring_series(R, support, U.limits.series_precision)
        zd_ring = is_zd_on_extension(f, reg).holds
        zd_mod = is_zd_on_extension(f, M).holds
        if zd_ring != zd_mod and (ausl if zd_ring else tf):
            wit = witness_entry("ext_ideal", ring=R, module=M,
                                value=gens, variant=variant,
                                display="c(f) = " + R.tuple_str(gens))
            if zd_ring:
                ausl, ausl_wit = False, wit
            else:
                tf, tf_wit = False, wit
    return ausl, tf, ausl_wit, tf_wit


def _extension_iff(U: Universe, rep: StatementReport, variant: str,
                   side: str, ring_property_a: bool = False):
    """The polynomial/series transfer: M[G] (or M[[X]]) has the property iff M does.

    side: "auslander", "torsion_free", or "both" (the conjunction)."""
    for R, M in _nonzero_pairs(U):
        if ring_property_a and not has_property_A(U.regular(R)).holds:
            continue
        if side in ("auslander", "both") and not has_property_A(M).holds:
            continue
        ausl_ext, tf_ext, ausl_wit, tf_wit = _memo(
            U, ("extp", R.descriptor, M.tag, variant),
            lambda: _ext_profile(U, R, M, variant))
        base_ausl = is_auslander(M).holds
        base_tf = is_torsion_free(M).holds
        if side == "auslander":
            agree = ausl_ext == base_ausl
            wit = ausl_wit
        elif side == "torsion_free":
            agree = tf_ext == base_tf
            wit = tf_wit
        else:
            agree = (ausl_ext and tf_ext) == (base_ausl and base_tf)
            wit = ausl_wit or tf_wit
        rep.visit(_member(R, M), None if agree else {
            "extension": {"auslander": ausl_ext, "torsion_free": tf_ext},
            "base": {"auslander": base_ausl, "torsion_free": base_tf},
            "witness": wit,
        })


def _mccoy_algebras_of(U: Universe, R):
    """The faithfully flat McCoy algebras over R; undecided ones are left out."""
    def ffl_mccoy(alg):
        try:
            return all(_ALGEBRA_VOCABULARY[name](U, alg)
                       for name in ("faithfully_flat", "mccoy"))
        except BoundExceeded:
            return False
    return _memo(U, ("mccoy-algs", R.descriptor),
                 lambda: [alg for alg in U.algebras[R.descriptor] if ffl_mccoy(alg)])


def _mccoy_tensor(U: Universe, rep: StatementReport, flat: bool, concl):
    """M (x) B satisfies `concl` for every nonzero Auslander M with property (A),
    flat too with `flat`, and every faithfully flat McCoy algebra B."""
    hyp = ("nonzero", "auslander", "property_a") + (("flat",) if flat else ())
    nontrivial = []
    for R in U.rings:
        for alg in _mccoy_algebras_of(U, R):
            for M in U.modules[R.descriptor]:
                if not _meets(rep, U, R, M, hyp):
                    continue
                member = f"{_member(R, M)} (x) {alg.descriptor}"
                try:
                    T = _memo(U, ("tensor", R.descriptor, M.tag, alg.descriptor),
                              lambda: tensor_with_algebra(
                                  M, alg, budget=U.limits.presentation_budget))
                except BoundExceeded as exc:
                    rep.notes.append(f"skipped {member}: {exc}")
                    continue
                if not alg.is_trivial_extension:
                    nontrivial.append(member)
                if T.is_zero:
                    rep.visit(member, {"reason": "tensor collapsed to zero"})
                else:
                    _check(rep, member, concl, U, alg.ring, T)
    rep.extra["nontrivial_applicable"] = nontrivial


def _summands(U: Universe, rep: StatementReport, flat: bool, concl, labels):
    """A sum of two nonzero modules (flat ones, with `flat`), the first
    Auslander, satisfies `concl`; so does, once per ring, the first summand
    doubled.  `labels` format the two- and three-summand member names."""
    for R in U.rings:
        mods = [M for M in U.modules[R.descriptor]
                if not M.is_zero and _meets(rep, U, R, M, ("flat",) if flat else ())]
        triple_done = False
        for M in mods:
            if not is_auslander(M).holds:
                continue
            for Mp in mods:
                if M.size * Mp.size > U.limits.max_module:
                    continue
                pair = f"{R.descriptor} :: {labels[0].format(M.tag, Mp.tag)}"
                if (_check(rep, pair, concl, U, R, direct_sum(M, Mp))
                        and not triple_done
                        and M.size * M.size * Mp.size <= U.limits.max_module):
                    triple = f"{R.descriptor} :: {labels[1].format(M.tag, Mp.tag)}"
                    _check(rep, triple, concl, U, R, direct_sum(direct_sum(M, M), Mp))
                    triple_done = True


_PARTWISE_MAX = 64
_MCCOY_RING_MAX = 8  # lem-2.7's annihilating pairs are over rings with |R| <= this


def _recheck(U: Universe, rep: StatementReport, check, algebras: bool = False):
    """Visit every nonzero pair (every universe algebra, with `algebras`);
    `check(R, X)` recomputes a verdict independently and returns the fields
    of a failure, or None."""
    if algebras:
        members = ((alg.descriptor, R, alg) for R, alg in U.all_algebras())
    else:
        members = ((_member(R, M), R, M) for R, M in _nonzero_pairs(U))
    for member, R, X in members:
        rep.visit(member, check(R, X))


def _partwise(U: Universe, rep: StatementReport, parts, check):
    """Every nonzero pair with |M| <= _PARTWISE_MAX is one applicable member,
    checked once per part in `parts(M)`; `check(R, M, part)` returns the
    fields of a failure, or None.  A bound hit in `parts` is a noted skip."""
    for R, M in _nonzero_pairs(U):
        if M.size > _PARTWISE_MAX:
            continue
        member = _member(R, M)
        try:
            items = parts(M)
        except BoundExceeded as exc:
            rep.notes.append(f"skipped {member}: {exc}")
            continue
        rep.applicable.append(member)
        for part in items:
            rep.checked += 1
            failure = check(R, M, part)
            if failure is not None:
                rep.failures.append({"member": member, **failure})


# ---------------------------------------------------------------------------
# independent re-derivations, the rows of `_recheck` and `_partwise`


def kills_nonzero(gens, elements, zero, act) -> bool:
    """Whether some nonzero x in `elements` has act(a, x) = zero for every a
    in `gens`: an element scan, apart from `least_killed`'s index scan."""
    return any(x != zero and all(act(a, x) == zero for a in gens) for x in elements)


def _auslander_inclusion(R, M):
    """The Auslander verdict against Z(R) within Z(M) from raw scans."""
    zr = R.zero_divisors() - {R.zero}
    zm = zero_divisors_module(M) - {R.zero}
    v = is_auslander(M)
    if v.holds != zr.issubset(zm):
        return {"verdict": v.holds}
    if not v.holds:
        r = v.witness["element"]
        if r not in zr or r in zm:
            return {"witness_invalid": to_jsonable(r)}
    return None


def _content_meet(R, M, m):
    """c(m) against the meet of the lattice ideals I with m in IM."""
    qualifying = [I for I in R.ideals() if m in ideal_action(I, M).elements]
    if not qualifying:
        return {"element": to_jsonable(m), "reason": "no qualifying ideal"}
    expected = frozenset.intersection(*[I.elements for I in qualifying])
    c = content_of_element(M, m)
    if c.elements != expected or not all(c.elements <= I.elements for I in qualifying):
        return {"element": to_jsonable(m)}
    return None


def _submodule_zero_divisors(R, M, N):
    """Z(N) within Z(M), so an Auslander N forces M to be Auslander."""
    zm = zero_divisors_module(M)
    Nmod = N.as_module()
    if not zero_divisors_module(Nmod) <= zm:
        return {"submodule_size": len(N.elements), "reason": "Z(N) not within Z(M)"}
    if is_auslander(Nmod).holds and not is_auslander(M).holds:
        return {"submodule_size": len(N.elements),
                "reason": "Auslander submodule but M not Auslander"}
    return None


def _property_a_direct(R, M):
    """Property (A) against a direct scan: each ideal inside Z(M) u {0}
    kills a nonzero element."""
    v = has_property_A(M)
    zm = zero_divisors_module(M) - {R.zero}
    direct = True
    offending = None
    for I in R.ideals():
        if not (I.elements - {R.zero}) <= zm:
            continue
        if not kills_nonzero(I.elements, M.elements, M.zero, M.act):
            direct = False
            offending = I.small_generators()
            break
    if v.holds and direct:
        return None
    return {"verdict": v.holds, "direct_recheck": direct,
            "ideal": to_jsonable(offending), "witness": v.witness}


def _ohm_rush_identity(R, alg):
    v = is_ohm_rush(alg)
    return None if v.holds else {"witness": v.witness}


def _torsion_free_kernel(R, M):
    """Torsion-freeness against the kernel of M -> M (x) Q."""
    kernel_trivial = natural_map_kernel(M).is_zero
    v = is_torsion_free(M)
    if kernel_trivial == v.holds:
        return None
    return {"kernel_trivial": kernel_trivial, "inclusion_verdict": v.holds}


# ---------------------------------------------------------------------------
# statements with sweeps of their own


def _localization_of(U: Universe, R, S):
    return _memo(U, ("loc", R.descriptor, tuple(sorted(map(R.index, S.elements)))),
                 lambda: localize(R, S))


def _prop_2_3(U: Universe, rep: StatementReport):
    instances = []
    for R, M in _nonzero_pairs(U):
        zm = zero_divisors_module(M)
        candidates = frozenset(R.elements) - zm
        zr = R.zero_divisors()
        hyp = is_auslander(M).holds
        for S in all_mult_closed_subsets(R, candidates):
            ring_loc = _localization_of(U, R, S)
            mod_loc = localize_module(M, S, ring_loc)
            MS = mod_loc.structure
            s_display = S.display()
            has_ring_zd = any(s in zr and s != R.zero for s in S.elements)
            verdict = is_auslander(MS)
            if has_ring_zd:
                # only reachable when M is not Auslander; logged as the
                # non-vacuous exercise of the localization machinery
                instances.append({
                    "member": _member(R, M),
                    "S": s_display,
                    "hypothesis_met": hyp,
                    "localized_auslander": bool(verdict.holds),
                    "localized_ring_size": len(ring_loc.structure.elements),
                    "localized_module_size": MS.size,
                })
            if hyp:
                rep.visit(f"{_member(R, M)} @ S={s_display}",
                          None if verdict.holds or verdict.degenerate
                          else {"S": s_display, "witness": verdict.witness})
    rep.extra["zero_divisor_S_instances"] = instances


def _lem_2_7(U: Universe, rep: StatementReport):
    degree = min(2, U.limits.degree_bound)
    sweep = mccoy_witness_sweep(U, degree=degree)
    rep.checked = sweep["pairs_checked"]
    rep.applicable = [f"{d} ({c} annihilating pairs)"
                      for d, c in sweep["per_ring"].items()]
    rep.failures = sweep["failures"]
    rep.notes.append(f"degrees <= {degree}, rings with |R| <= {_MCCOY_RING_MAX}")


def _def_2_11(U: Universe, rep: StatementReport):
    for R in U.rings:
        alg = U.algebras[R.descriptor][0]
        rep.visit(alg.descriptor, None if is_mccoy_algebra(alg).holds
                  else {"reason": "self algebra rejected"})
    Z2 = Zmod(2)
    diag = diagonal_algebra(Z2, product_ring(Z2, Z2))
    v = is_mccoy_algebra(diag)
    pair = (v.witness or {}).get("pair")
    rep.visit(diag.descriptor, {"verdict": v.holds, "witness": v.witness}
              if v.holds or pair != ((1, 0), (0, 1)) else None)
    rep.extra["rejection"] = witness_entry(
        "mccoy", algebra=diag, value=pair, display="f=(1,0), g=(0,1)")
    # independent inline re-derivation on small algebras
    for R, alg in U.all_algebras():
        B = alg.ring
        if B.size > 16:
            continue
        rep.checked += 1
        verdict = is_mccoy_algebra(alg).holds
        direct = is_ohm_rush(alg).holds and all(
            kills_nonzero(content_of_element(alg.as_module(), f).elements,
                          R.elements, R.zero, R.mul)
            for f in B.elements for g in B.elements
            if g != B.zero and B.mul(f, g) == B.zero)
        if verdict != direct:
            rep.failures.append({"member": alg.descriptor,
                                 "verdict": verdict, "direct_recheck": direct})


def _rem_3_3_1(U: Universe, rep: StatementReport):
    for R in U.rings:
        candidates = R.regular_elements()
        zr = R.zero_divisors()
        for S in all_mult_closed_subsets(R, candidates):
            loc = _localization_of(U, R, S)
            RS_mod = localized_ring_as_base_module(loc)
            failure = None
            if zero_divisors_module(RS_mod) != zr:
                failure = {"reason": "Z(R_S) != Z(R)"}
            elif not (is_torsion_free(RS_mod).holds and is_auslander(RS_mod).holds):
                failure = {"reason": "not torsion-free Auslander"}
            rep.visit(f"{R.descriptor} @ S={S.display()}", failure)


def _z_torsion_witness(case, k: int) -> dict:
    """Z/n's torsion witness k; keys in this order, which the pinned report
    holds, not witness_entry's."""
    return {"kind": "torsion_free", "ring": "Z", "module": case.case_id,
            "value": k, "display": str(k)}


def _rem_3_3_2(U: Universe, rep: StatementReport):
    torsion_witnesses = []
    for case in z_adapter_cases():
        tf = case.is_torsion_free()
        witness = tf.witness["element"]
        ok = (case.is_auslander().holds and not tf.holds
              and case.contains_ideal_n() and case.in_zero_divisors(witness))
        if rep.visit(f"Z :: {case.case_id}", None if ok else {}):
            torsion_witnesses.append(_z_torsion_witness(case, witness))
    rep.extra["torsion_free_witnesses"] = torsion_witnesses


def _rem_3_3_3(U: Universe, rep: StatementReport):
    R = product_ring(Zmod(2), Zmod(2))
    I = ideal_generated(R, [(0, 1)])
    M = cyclic_module(R, I)
    zr = R.zero_divisors()
    zm = zero_divisors_module(M)
    ausl = is_auslander(M)
    tf = is_torsion_free(M)
    expected_zr = frozenset({(0, 0), (1, 0), (0, 1)})
    expected_zm = frozenset({(0, 0), (0, 1)})
    ok = (zr == expected_zr and zm == expected_zm and tf.holds
          and not ausl.holds and ausl.witness["element"] == (1, 0))
    rep.visit(_member(R, M), None if ok else {
        "Z_R": to_jsonable(R.sorted_elements(zr)),
        "Z_M": to_jsonable(R.sorted_elements(zm)),
        "torsion_free": tf.holds, "auslander": ausl.holds})
    rep.extra["reproduction"] = {
        "ring": R.descriptor,
        "module": M.tag,
        "Z_R": to_jsonable(R.sorted_elements(zr)),
        "Z_M": to_jsonable(R.sorted_elements(zm)),
        "torsion_free": tf.holds,
        "auslander": ausl.holds,
        "auslander_witness": witness_entry(
            "auslander", ring=R, module=M,
            value=ausl.witness["element"], display=R.element_str((1, 0))),
    }


# ---------------------------------------------------------------------------
# the statement table, in report order
#
# A row is (id, description, sweep, keyword arguments of the sweep, notes);
# the notes follow any the sweep writes and may name `{limits.<field>}`.

_AUSL = ("auslander",)
_TF_AUSL = ("torsion_free", "auslander")
_FLAT_CONTENT = ("flat", "content_module", "content_surjective")
_FINITE_INDEX = "finite-index instantiation (2-3 summands/factors)"
_PRECISION = "series precision {limits.series_precision}"

STATEMENTS = (
    ("def-2.1",
     "Auslander predicate coherence: verdict equals the set inclusion "
     "Z(R) within Z(M), recomputed from raw zero-divisor scans",
     _recheck, dict(check=_auslander_inclusion), ()),
    ("content-def",
     "content coherence: c(m) equals the intersection of all lattice ideals "
     "I with m in IM, and is contained in each of them",
     _partwise, dict(parts=lambda M: M.elements, check=_content_meet),
     (f"members with |M| <= {_PARTWISE_MAX} checked elementwise",)),
    ("prop-2.2-1",
     "over a domain every nonzero module is Auslander "
     "(finite domains are fields; the integer adapter supplies the "
     "non-field domain instances)",
     _implication, dict(hyp=("domain",), concl=_AUSL, adapter="Z"), ()),
    ("prop-2.2-2",
     "a flat content module whose element contents reach every principal "
     "ideal is Auslander",
     _implication, dict(hyp=_FLAT_CONTENT, concl=_AUSL), ()),
    ("prop-2.2-3", "a module with zero annihilator is Auslander",
     _implication, dict(hyp=("zero_annihilator",), concl=_AUSL), ()),
    ("prop-2.2-4",
     "if the annihilator of M is zero, the module of linear self-maps "
     "of M is Auslander",
     _implication, dict(hyp=("zero_annihilator",), concl=_AUSL, hom=True), ()),
    ("prop-2.2-5",
     "Z(N) is contained in Z(M) for every submodule N, so an Auslander "
     "submodule forces M to be Auslander",
     _partwise, dict(parts=lambda M: [N for N in all_submodules(M) if not N.is_zero],
                     check=_submodule_zero_divisors),
     (f"members with |M| <= {_PARTWISE_MAX}, full submodule lattice",)),
    ("prop-2.2-6",
     "a direct sum with an Auslander summand is Auslander "
     "(finite-index instantiation: two to three summands)",
     _summands, dict(flat=False, concl=_AUSL,
                     labels=("Sum({0},{1})", "Sum(Sum({0},{0}),{1})")),
     ("finite-index instantiation (2-3 summands)",)),
    ("prop-2.3",
     "localizing an Auslander module at a multiplicative set avoiding "
     "Z(M) yields an Auslander module over the localized ring",
     _prop_2_3, {},
     ("under the hypotheses S avoids Z(R) automatically; sets S containing "
      "a ring zero-divisor acting regularly on M are logged separately",)),
    ("prop-a-def",
     "property (A) holds for every universe member (finitely generated "
     "modules over Noetherian rings), re-derived independently per ideal",
     _recheck, dict(check=_property_a_direct),
     ("a failure here indicates an engine bug, not a refutation",)),
    ("thm-2.4",
     "for modules with property (A): M[G] is Auslander over R[G] iff M is "
     "Auslander (G = N^1, content-annihilator criterion)",
     _extension_iff, dict(variant="monoid", side="auslander"),
     ("property (A) holds for every finite module, so the hypothesis "
      "filter never excludes a member at this scale",)),
    ("lem-2.7",
     "constructive witness: every annihilating pair f*g = 0 with g nonzero "
     "yields a nonzero constant m with f*m = 0",
     _lem_2_7, {}, ()),
    ("thm-2.8",
     "for modules with property (A) over a Noetherian (finite) ring: "
     "M[[X]] is Auslander over R[[X]] iff M is Auslander "
     "(truncated-series instantiation)",
     _extension_iff, dict(variant="series", side="auslander"), (_PRECISION,)),
    ("cor-2.9",
     "finitely generated modules over Noetherian rings: the series "
     "Auslander transfer holds with no extra hypothesis (every finite "
     "module is finitely generated)",
     _extension_iff, dict(variant="series", side="auslander"), ()),
    ("rem-2.10",
     "every universe algebra is free as a module (hence projective), so "
     "each must satisfy the element-content identity f in c(f)B",
     _recheck, dict(check=_ohm_rush_identity, algebras=True), ()),
    ("def-2.11",
     "McCoy predicate calibration: every ring over itself is McCoy; the "
     "diagonal into a square of a field is rejected with an annihilating "
     "pair of unit content",
     _def_2_11, {}, ()),
    ("thm-2.13",
     "tensoring an Auslander module with property (A) by a faithfully "
     "flat McCoy algebra yields an Auslander module over the algebra",
     _mccoy_tensor, dict(flat=False, concl=_AUSL), ()),
    ("cor-2.14",
     "content-algebra corollary checked through its faithfully-flat + "
     "McCoy consequence (the only content-algebra surface in scope)",
     _mccoy_tensor, dict(flat=False, concl=_AUSL),
     ("hypothesis instantiated by the ffl+McCoy filter",)),
    ("tf-3.1",
     "the two torsion-free definitions coincide: the natural map into "
     "M (x) Q is injective iff Z(M) is within Z(R)",
     _recheck, dict(check=_torsion_free_kernel), ()),
    ("thm-3.2",
     "over a ring with property (A): M[G] is torsion-free over R[G] iff "
     "M is torsion-free",
     _extension_iff, dict(variant="monoid", side="torsion_free", ring_property_a=True),
     ("every finite ring has property (A); the filter is recorded, not vacuous",)),
    ("rem-3.3-1",
     "for S avoiding Z(R), the localization R_S viewed as an R-module "
     "has Z(R_S) = Z(R) and is torsion-free Auslander",
     _rem_3_3_1, {}, ()),
    ("rem-3.3-2",
     "integer adapter: Z/n over the domain Z is Auslander but not "
     "torsion-free, and Z(Z/n) contains the ideal (n)",
     _rem_3_3_2, {},
     ("finite domains are fields, which trivializes the statement; the "
      "adapter carries its desk-scale content analytically",)),
    ("rem-3.3-3",
     "the square of a two-element field modulo one factor: torsion-free "
     "but not Auslander, with explicit zero-divisor sets",
     _rem_3_3_3, {}, ()),
    ("thm-3.4",
     "Noetherian ring, finitely generated module: M[[X]] is torsion-free "
     "over R[[X]] iff M is torsion-free (truncated-series instantiation)",
     _extension_iff, dict(variant="series", side="torsion_free"), (_PRECISION,)),
    ("prop-3.5-1", "over a domain, flat modules are torsion-free Auslander",
     _implication, dict(hyp=("domain", "flat"), concl=_TF_AUSL,
                        adapter="Z (flat)"), ()),
    ("prop-3.5-2",
     "a flat content module with element contents reaching every "
     "principal ideal is torsion-free Auslander",
     _implication, dict(hyp=_FLAT_CONTENT, concl=_TF_AUSL), ()),
    ("prop-3.5-3",
     "finitely generated flat module with zero annihilator: its module "
     "of linear self-maps is torsion-free Auslander",
     _implication, dict(hyp=("zero_annihilator", "flat"), concl=_TF_AUSL, hom=True), ()),
    ("prop-3.5-4",
     "a direct sum of flat modules with an Auslander summand is "
     "torsion-free Auslander",
     _summands, dict(flat=True, concl=_TF_AUSL,
                     labels=("Sum({0},{1})", "Sum({0},{0},{1})")),
     (_FINITE_INDEX,)),
    ("prop-3.5-5",
     "over a coherent ring (every finite ring), a product of flat "
     "modules with an Auslander factor is torsion-free Auslander",
     _summands, dict(flat=True, concl=_TF_AUSL,
                     labels=("Prod({0},{1})", "Prod({0},{0},{1})")),
     (_FINITE_INDEX, "finite products coincide with finite direct sums")),
    ("prop-3.6",
     "when both R and M have property (A): M[G] is torsion-free Auslander "
     "over R[G] iff M is torsion-free Auslander",
     _extension_iff, dict(variant="monoid", side="both", ring_property_a=True), ()),
    ("cor-3.7",
     "Noetherian ring, finitely generated module: the monoid-extension "
     "torsion-free Auslander transfer holds with no extra hypothesis",
     _extension_iff, dict(variant="monoid", side="both"), ()),
    ("thm-3.8",
     "tensoring a flat Auslander module with property (A) by a faithfully "
     "flat McCoy algebra yields a torsion-free Auslander module over it",
     _mccoy_tensor, dict(flat=True, concl=("auslander", "torsion_free")), ()),
    ("thm-3.9",
     "Noetherian ring, finitely generated module: M[[X]] is torsion-free "
     "Auslander over R[[X]] iff M is torsion-free Auslander",
     _extension_iff, dict(variant="series", side="both"), ()),
)


def _run(row, U: Universe) -> StatementReport:
    sid, description, sweep, args, notes = row
    rep = StatementReport(sid, description)
    sweep(U, rep, **args)
    rep.notes.extend(note.format(limits=U.limits) for note in notes)
    return rep.finish()


# id -> callable on a universe; looked up at call time, so it can be wrapped
REGISTRY = {row[0]: functools.partial(_run, row) for row in STATEMENTS}


def run_statement(statement_id: str, U: Universe) -> StatementReport:
    try:
        runner = REGISTRY[statement_id]
    except KeyError:
        raise ValueError(f"unknown statement id {statement_id!r}") from None
    return runner(U)


def run_suite(pattern: str, U: Universe) -> list[StatementReport]:
    if pattern in ("all", "", "*"):
        ids = list(REGISTRY)
    else:
        ids = [i for i in REGISTRY if fnmatch.fnmatchcase(i, pattern)]
    return [REGISTRY[i](U) for i in ids]


# ---------------------------------------------------------------------------
# counterexample search


def parse_predicate_expression(text: str) -> list[tuple[str, bool]]:
    """Conjunction of possibly negated predicate names: 'a and not b'."""
    atoms = []
    normalized = text.replace("&&", " and ").replace("&", " and ")
    for chunk in normalized.split(" and "):
        chunk = chunk.strip()
        if not chunk:
            raise ValueError(f"unparseable expression {text!r}: empty conjunct")
        negated = False
        while chunk.startswith("!") or chunk.startswith("not "):
            negated = not negated
            chunk = chunk[1:].strip() if chunk.startswith("!") else chunk[4:].strip()
        if not chunk.replace("_", "").isalnum():
            raise ValueError(f"unparseable expression {text!r}: bad atom {chunk!r}")
        atoms.append((chunk, negated))
    return atoms


def _eval_atoms(atoms, vocab, *args) -> bool | None:
    """None when some predicate is undefined for this member kind."""
    for name, negated in atoms:
        fn = vocab.get(name)
        if fn is None:
            return None
        if bool(fn(*args)) == negated:
            return False
    return True


def search_counterexample(hyp: str, concl: str, U: Universe) -> list[dict]:
    """All members satisfying hyp and failing concl, with witnesses."""
    hyp_atoms = parse_predicate_expression(hyp)
    concl_atoms = parse_predicate_expression(concl)
    known = set(_PAIR_VOCABULARY) | set(_ALGEBRA_VOCABULARY)
    for name, _ in hyp_atoms + concl_atoms:
        if name not in known:
            raise ValueError(f"unknown predicate {name!r}")

    def refuted(vocab, *args) -> bool:
        return (_eval_atoms(hyp_atoms, vocab, *args) is True
                and _eval_atoms(concl_atoms, vocab, *args) is False)

    results = []
    for R, M in U.pairs():
        if refuted(_PAIR_VOCABULARY, U, R, M):
            results.append({"kind": "pair", "member": _member(R, M),
                             "ring": R.descriptor, "module": M.tag})
    for R, alg in U.all_algebras():
        if refuted(_ALGEBRA_VOCABULARY, U, alg):
            results.append({"kind": "algebra", "member": alg.descriptor})
    for facts, members in _adapter_members():
        if refuted({name: (lambda v=v: v) for name, v in facts.items()}):
            results.extend({"kind": "adapter", "member": m} for m in members)
    return results


# ---------------------------------------------------------------------------
# adapter checks


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
    return {
        "case": case.case_id,
        "degenerate": False,
        "auslander": case.is_auslander().holds,
        "torsion_free": tf.holds,
        "torsion_free_witness": _z_torsion_witness(case, tf.witness["element"]),
        "zero_divisors_contain_ideal_n": case.contains_ideal_n(),
        "zero_divisor_rule": case.zero_divisor_description(),
    }


# ---------------------------------------------------------------------------
# exhaustive harness sweeps shared with the acceptance suite


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
    for R, M in _nonzero_pairs(U):
        if R.size > max_ring or M.size > max_module:
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


def _annihilating_cofactors(R, cf):
    """The nonzero g with f*g = 0, deg g <= deg f = d, in `itertools.product`
    order, by a depth-first walk over the indices of g's coefficients.
    Coefficient j <= d of f*g is f_0 g_j + rest_j, where rest_j reads only
    g_0..g_(j-1), so g_j runs over the solutions x of f_0 x = -rest_j,
    ascending, from a table built once per f; coefficients d+1..2d are
    tested at the leaf.  Only non-solutions are skipped."""
    d, zero, plus, minus = len(cf) - 1, R.index(R.zero), R.plus, R.minus
    f_rows = [R.rows[R.index(c)] for c in cf]
    solutions = [[] for _ in range(R.size)]  # solutions[t]: the x with f_0 x = t
    for x, t in enumerate(f_rows[0]):
        solutions[t].append(x)
    g = [zero] * len(cf)

    def rest(k):
        # coefficient k of f*g without its f_0 g_k term, the whole of it for k > d
        total = zero
        for i in range(max(1, k - d), min(d, k) + 1):
            total = plus[total][f_rows[i][g[k - i]]]
        return total

    def walk(j):
        for c in solutions[minus[rest(j)]]:
            g[j] = c
            if j < d:
                yield from walk(j + 1)
            elif any(b != zero for b in g) and all(
                    rest(k) == zero for k in range(d + 1, 2 * d + 1)):
                yield tuple(map(R.elements.__getitem__, g))

    return walk(0)


def mccoy_witness_sweep(U: Universe, max_ring: int = _MCCOY_RING_MAX, degree: int = 2) -> dict:
    """Exhaustive annihilating pairs (f, g) of bounded degree over regular
    modules; every pair must yield a valid constructive witness."""
    out = {"pairs_checked": 0, "failures": [], "per_ring": {}}
    n_coeff = degree + 1
    for R in U.rings:
        if R.size > max_ring:
            continue
        Reg = U.regular(R)
        zero = R.zero
        count = 0
        for cf in itertools.product(R.elements, repeat=n_coeff):
            cofactors = list(_annihilating_cofactors(R, cf))
            if not cofactors:
                continue
            f = ring_poly(R, {(i,): c for i, c in enumerate(cf) if c != zero})
            for cg in cofactors:
                g = module_poly(Reg, {(i,): c for i, c in enumerate(cg) if c != zero})
                count += 1
                out["pairs_checked"] += 1
                try:
                    m = mccoy_witness(f, g)
                except (RuntimeError, ValueError) as exc:
                    out["failures"].append({
                        "ring": R.descriptor, "f": str(f), "g": str(g),
                        "error": str(exc)})
                    continue
                if m == zero or any(R.mul(c, m) != zero for c in cf):
                    out["failures"].append({
                        "ring": R.descriptor, "f": str(f), "g": str(g),
                        "witness": to_jsonable(m),
                        "error": "postcondition violated"})
        out["per_ring"][R.descriptor] = count
    return out


def embedding_invariance(U: Universe, max_ring: int = 6, max_module: int = 8) -> dict:
    """Verdicts for f(X) agree with f(X1) under the embedding N -> N^2."""
    report = {"checked": 0, "mismatches": []}
    for R, M in _nonzero_pairs(U):
        if R.size > max_ring or M.size > max_module:
            continue
        for coeffs in itertools.product(R.elements, repeat=3):
            support1 = {(i,): c for i, c in enumerate(coeffs) if c != R.zero}
            if not support1:
                continue
            support2 = {(i, 0): c for (i,), c in support1.items()}
            f1 = ring_poly(R, support1, arity=1)
            f2 = ring_poly(R, support2, arity=2)
            report["checked"] += 1
            if is_zd_on_extension(f1, M).holds != is_zd_on_extension(f2, M).holds:
                report["mismatches"].append({
                    "ring": R.descriptor, "module": M.tag, "f": str(f1)})
    return report


def faithfully_flat_mccoy_algebras(U: Universe) -> list[str]:
    """Raw material log: universe algebras that are faithfully flat and McCoy."""
    found = []
    for R in U.rings:
        for alg in _mccoy_algebras_of(U, R):
            found.append(alg.descriptor)
    return found
