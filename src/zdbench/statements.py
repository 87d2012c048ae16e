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
counterexample `search` reads too.  The integer adapter (Z/n over Z for n in
`ADAPTER_MODULI`, and Z itself) has no carrier: `_ADAPTER_FACTS` answers the
vocabulary on it, and rem-3.3-2 checks those facts against the gcd rule
`adapter_torsion`, which revalidation applies to the adapter's witnesses.

Extension-ring statements quantify over the ideal lattice and name the
properties they compare.  A polynomial or series element is a zero-divisor on
M[G] exactly when its content ideal kills a nonzero element of M, so one
element per lattice ideal, with the ideal's generators as coefficients, covers
every finitely supported element; a series ideal with more generators than
the precision holds terms is a noted skip.
"""

from __future__ import annotations

import fnmatch
import functools
import itertools
import math
from dataclasses import dataclass, field

from .encoding import to_jsonable
from .errors import BoundExceeded
from .extensions import (content_chain_witness, diagonal_algebra,
                         is_mccoy_algebra, is_ohm_rush, is_zd_on_extension,
                         ring_poly)
from .localize import (localize, localize_module, localized_ring_as_base_module,
                       natural_map_kernel)
from .modules import (all_submodules, ann, content_of_element,
                      content_surjective, cyclic_module, direct_sum,
                      has_property_A, hom_module, ideal_action,
                      is_auslander, is_content_module, is_faithfully_flat,
                      is_flat, is_torsion_free, tensor_with_algebra,
                      zero_divisors_module)
from .rings import Zmod, all_mult_closed_subsets, ideal_generated, product_ring
from .universe import Universe


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


def witness_entry(kind, ring=None, module=None, value=None, display="", *,
                  algebra=None, variant=None) -> dict:
    """A re-checkable witness entry: `ring`, `module` and `algebra` are
    descriptor strings, and the keys run kind, ring, module, algebra, value,
    display, variant, leaving out those not named."""
    entry = {"kind": kind}
    for key, name in (("ring", ring), ("module", module), ("algebra", algebra)):
        if name is not None:
            entry[key] = name
    entry["value"] = to_jsonable(value)
    entry["display"] = display
    if variant is not None:
        entry["variant"] = variant
    return entry


def predicate_entry(M, witness: dict) -> dict:
    """The entry of a predicate's `witness` on M: its value is an element, of
    M for content and of M's ring otherwise, or an ideal's generators; a
    witness naming no kind gives an entry no revalidator accepts."""
    R, kind = M.ring, witness.get("kind")
    if "element" in witness:
        value = witness["element"]
        display = (M if kind == "content" else R).element_str(value)
    else:
        value = witness.get("ideal")
        display = "" if value is None else R.tuple_str(value)
    return witness_entry(kind, R.descriptor, M.tag, value, display)


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
    "ring_property_a": lambda U, R, M: has_property_A(U.regular(R)),
    "zero_annihilator": lambda U, R, M: ann(M).is_zero,
    "reg_module": lambda U, R, M: M.tag == "Reg",
    "nonzero": lambda U, R, M: not M.is_zero,
    "domain": lambda U, R, M: R.is_domain(),
    "field": lambda U, R, M: R.is_field(),
    "local": lambda U, R, M: R.is_local(),
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


# the integer adapter's Z/n cases, and its facts keyed by the vocabulary's names
ADAPTER_MODULI = range(2, 31)

_ADAPTER_FACTS = {
    # Z/n over Z; flatness and friends are analytic facts
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


def adapter_torsion(k: int, n: int) -> bool:
    """k lies in Z(Z/n) but not in Z(Z) = {0}: k != 0 and gcd(k, n) > 1."""
    return k != 0 and math.gcd(k, n) > 1


def _adapter_members(z_label: str = "Z"):
    """(facts, member names) of Z/n over Z, then of Z over itself as `z_label`."""
    return ((_ADAPTER_FACTS["quotient"], [f"Z :: Z/{n}" for n in ADAPTER_MODULI]),
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
            # a Verdict may carry a witness; a plain bool carries none
            witness = getattr(verdict, "witness", None)
            return rep.visit(member, {"witness": witness and predicate_entry(X, witness)})
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


def _ext_profile(U: Universe, R, M) -> dict:
    """{property: generators of the first lattice ideal whose f shows M[G] / M[[X]]
    lacks it}: f is a zero-divisor on R's extension alone (auslander) or M's
    (torsion_free).  The criterion reads only f's coefficients, so one
    polynomial per ideal decides the monoid and the series rows alike."""
    reg, lacking = U.regular(R), {}
    for I in R.ideals():
        gens = I.small_generators()
        f = ring_poly(R, {(i,): g for i, g in enumerate(gens)})
        zd_ring = is_zd_on_extension(f, reg).holds
        if zd_ring != is_zd_on_extension(f, M).holds:
            lacking.setdefault("auslander" if zd_ring else "torsion_free", gens)
    return lacking


def _extension_iff(U: Universe, rep: StatementReport, variant: str, side, hyp):
    """For nonzero M meeting `hyp`, M[G] (or M[[X]]) has the properties named
    in `side` iff M does; the witness is the first found, in `side` order."""
    precision = U.limits.series_precision
    for R, M in _nonzero_pairs(U):
        if not _meets(rep, U, R, M, hyp):
            continue
        # a series row skips R on its first ideal with more generators than terms
        wide = variant == "series" and _memo(U, ("series-gap", R.descriptor), lambda: next(
            (g for g in (I.small_generators() for I in R.ideals()) if len(g) > precision), None))
        if wide:
            rep.notes.append(f"skipped {_member(R, M)}: content ideal {R.tuple_str(wide)} "
                             f"needs {len(wide)} terms, past series precision {precision}")
            continue
        lacking = _memo(U, ("extp", R.descriptor, M.tag), lambda: _ext_profile(U, R, M))
        ext = {p: p not in lacking for p in _AUSL_TF}
        base = {p: _PAIR_VOCABULARY[p](U, R, M).holds for p in _AUSL_TF}
        agree = all(ext[p] for p in side) == all(base[p] for p in side)
        gens = next((lacking[p] for p in side if p in lacking), None)
        rep.visit(_member(R, M), None if agree else {
            "extension": ext, "base": base, "witness": None if gens is None else witness_entry(
                "ext_ideal", R.descriptor, M.tag, gens, "c(f) = " + R.tuple_str(gens),
                variant=variant)})


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


def _mccoy_tensor(U: Universe, rep: StatementReport, hyp, concl):
    """M (x) B satisfies `concl` for every M meeting `hyp` and every
    faithfully flat McCoy algebra B."""
    nontrivial = []
    for R in U.rings:
        for alg in _mccoy_algebras_of(U, R):
            for M in U.modules[R.descriptor]:
                if not _meets(rep, U, R, M, hyp):
                    continue
                member = f"{_member(R, M)} (x) {alg.descriptor}"
                try:
                    T = _memo(U, ("tensor", R.descriptor, M.tag, alg.descriptor),
                              lambda: tensor_with_algebra(M, alg))
                except BoundExceeded as exc:
                    rep.notes.append(f"skipped {member}: {exc}")
                    continue
                if not alg.is_trivial_extension:
                    nontrivial.append(member)
                _check(rep, member, concl, U, alg.ring, T)
    rep.extra["nontrivial_applicable"] = nontrivial


def _summands(U: Universe, rep: StatementReport, hyp, concl, labels):
    """A sum of two modules meeting `hyp`, the first Auslander, satisfies
    `concl`; so does, once per ring, the first summand doubled.  `labels`
    format the two- and three-summand member names."""
    for R in U.rings:
        mods = [M for M in U.modules[R.descriptor] if _meets(rep, U, R, M, hyp)]
        triple_done = False
        for M in mods:
            if not _meets(rep, U, R, M, _AUSL):
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


def kills_nonzero(gens, X) -> bool:
    """Whether some nonzero x in X, a ring or a module, has a*x = 0 for every
    a in `gens`: an element scan, apart from `least_killed`'s index scan."""
    zero, act = X.zero, X.act
    return any(x != zero and all(act(a, x) == zero for a in gens) for x in X.elements)


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
        if not kills_nonzero(I.elements, M):
            direct = False
            offending = I.small_generators()
            break
    if v.holds and direct:
        return None
    return {"verdict": v.holds, "direct_recheck": direct, "ideal": to_jsonable(offending),
            "witness": v.witness and predicate_entry(M, v.witness)}


def _ohm_rush_identity(R, alg):
    v = is_ohm_rush(alg)
    if v.holds:
        return None
    f = v.witness.get("element")
    return {"witness": witness_entry(v.witness.get("kind"), None, None, f,
                                     "" if f is None else alg.ring.element_str(f),
                                     algebra=alg.descriptor)}


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
    display = "" if pair is None else "f={}, g={}".format(*map(diag.ring.element_str, pair))
    rejection = witness_entry("mccoy", value=pair, display=display, algebra=diag.descriptor)
    rep.visit(diag.descriptor, {"verdict": v.holds, "witness": rejection}
              if v.holds or pair != ((1, 0), (0, 1)) else None)
    rep.extra["rejection"] = rejection
    # independent inline re-derivation on small algebras
    for R, alg in U.all_algebras():
        B = alg.ring
        if B.size > 16:
            continue
        rep.checked += 1
        verdict = is_mccoy_algebra(alg).holds
        direct = is_ohm_rush(alg).holds and all(
            kills_nonzero(content_of_element(alg.as_module(), f).elements, R)
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


def _rem_3_3_2(U: Universe, rep: StatementReport):
    """The Z/n facts against gcd arithmetic.  Membership in Z(Z/n) depends on
    k mod n only, so Z/n is Auslander, and Z(Z/n) holds the ideal (n), iff
    gcd(0, n) > 1, and Z/n is torsion-free iff no k in 1..n is torsion."""
    facts, torsion_witnesses = _ADAPTER_FACTS["quotient"], []
    for n in ADAPTER_MODULI:
        k = next((k for k in range(1, n + 1) if adapter_torsion(k, n)), None)
        found = (math.gcd(0, n) > 1, k is None)  # (auslander, torsion_free)
        ok = (facts["auslander"], facts["torsion_free"]) == found == (True, False)
        if rep.visit(f"Z :: Z/{n}", None if ok else {}):
            torsion_witnesses.append(witness_entry("torsion_free", "Z", f"Z/{n}", k, str(k)))
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
    found = {"Z_R": to_jsonable(R.sorted_elements(zr)),
             "Z_M": to_jsonable(R.sorted_elements(zm)),
             "torsion_free": tf.holds, "auslander": ausl.holds}
    rep.visit(_member(R, M), None if ok else found)
    rep.extra["reproduction"] = {
        "ring": R.descriptor,
        "module": M.tag,
        **found,
        "auslander_witness": ausl.witness and predicate_entry(M, ausl.witness),
    }


# ---------------------------------------------------------------------------
# the statement table, in report order
#
# A row is (id, description, sweep, keyword arguments of the sweep, notes);
# the notes follow any the sweep writes and may name `{limits.<field>}`.  A
# row's `hyp` names every hypothesis its sweep applies to a member, apart from
# the pair sweeps' own skip of the zero module, `_mccoy_algebras_of`'s algebra
# filter and `_summands`' Auslander first summand.

_AUSL = ("auslander",)
_AUSL_TF = ("auslander", "torsion_free")
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
     _summands, dict(hyp=("nonzero",), concl=_AUSL,
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
     _extension_iff, dict(variant="monoid", side=_AUSL, hyp=("property_a",)),
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
     _extension_iff, dict(variant="series", side=_AUSL, hyp=("property_a",)), (_PRECISION,)),
    ("cor-2.9",
     "finitely generated modules over Noetherian rings: the series "
     "Auslander transfer holds with no extra hypothesis (every finite "
     "module is finitely generated)",
     _extension_iff, dict(variant="series", side=_AUSL, hyp=("property_a",)), ()),
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
     _mccoy_tensor, dict(hyp=("nonzero", "auslander", "property_a"), concl=_AUSL), ()),
    ("cor-2.14",
     "content-algebra corollary checked through its faithfully-flat + "
     "McCoy consequence (the only content-algebra surface in scope)",
     _mccoy_tensor, dict(hyp=("nonzero", "auslander", "property_a"), concl=_AUSL),
     ("hypothesis instantiated by the ffl+McCoy filter",)),
    ("tf-3.1",
     "the two torsion-free definitions coincide: the natural map into "
     "M (x) Q is injective iff Z(M) is within Z(R)",
     _recheck, dict(check=_torsion_free_kernel), ()),
    ("thm-3.2",
     "over a ring with property (A): M[G] is torsion-free over R[G] iff "
     "M is torsion-free",
     _extension_iff, dict(variant="monoid", side=("torsion_free",),
                          hyp=("ring_property_a",)),
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
     _extension_iff, dict(variant="series", side=("torsion_free",), hyp=()), (_PRECISION,)),
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
     _summands, dict(hyp=("nonzero", "flat"), concl=_TF_AUSL,
                     labels=("Sum({0},{1})", "Sum({0},{0},{1})")),
     (_FINITE_INDEX,)),
    ("prop-3.5-5",
     "over a coherent ring (every finite ring), a product of flat "
     "modules with an Auslander factor is torsion-free Auslander",
     _summands, dict(hyp=("nonzero", "flat"), concl=_TF_AUSL,
                     labels=("Prod({0},{1})", "Prod({0},{0},{1})")),
     (_FINITE_INDEX, "finite products coincide with finite direct sums")),
    ("prop-3.6",
     "when both R and M have property (A): M[G] is torsion-free Auslander "
     "over R[G] iff M is torsion-free Auslander",
     _extension_iff, dict(variant="monoid", side=_AUSL_TF,
                          hyp=("ring_property_a", "property_a")), ()),
    ("cor-3.7",
     "Noetherian ring, finitely generated module: the monoid-extension "
     "torsion-free Auslander transfer holds with no extra hypothesis",
     _extension_iff, dict(variant="monoid", side=_AUSL_TF, hyp=("property_a",)), ()),
    ("thm-3.8",
     "tensoring a flat Auslander module with property (A) by a faithfully "
     "flat McCoy algebra yields a torsion-free Auslander module over it",
     _mccoy_tensor, dict(hyp=("nonzero", "auslander", "property_a", "flat"),
                         concl=_AUSL_TF), ()),
    ("thm-3.9",
     "Noetherian ring, finitely generated module: M[[X]] is torsion-free "
     "Auslander over R[[X]] iff M is torsion-free Auslander",
     _extension_iff, dict(variant="series", side=_AUSL_TF, hyp=("property_a",)), ()),
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


def search_query(hyp: str, concl: str) -> tuple[list, list]:
    """The atoms of hyp and concl.  Raises ValueError, before any member is
    built, on an unparseable expression, an unknown predicate, or a query
    that no one member kind defines every predicate of."""
    hyp_atoms = parse_predicate_expression(hyp)
    concl_atoms = parse_predicate_expression(concl)
    names = dict.fromkeys(name for name, _ in hyp_atoms + concl_atoms)
    for name in names:
        if name not in _PAIR_VOCABULARY and name not in _ALGEBRA_VOCABULARY:
            raise ValueError(f"unknown predicate {name!r}")
    # a member whose kind lacks one name is skipped, so the answer could only be empty
    if not any(names.keys() <= vocab.keys() for vocab in
               (_PAIR_VOCABULARY, _ALGEBRA_VOCABULARY, *_ADAPTER_FACTS.values())):
        raise ValueError("no pair, algebra or integer-adapter member defines all of "
                         + ", ".join(names))
    return hyp_atoms, concl_atoms


def search_counterexample(hyp: str, concl: str, U: Universe) -> tuple[list, list]:
    """The members satisfying hyp and failing concl, with witnesses, and the
    members a bound left undecided, each with its reason, as `_meets` skips
    them; a query `search_query` refuses raises its ValueError."""
    hyp_atoms, concl_atoms = search_query(hyp, concl)
    results, skipped = [], []

    def visit(entry, vocab, *args):
        try:
            if (_eval_atoms(hyp_atoms, vocab, *args) is True
                    and _eval_atoms(concl_atoms, vocab, *args) is False):
                results.append(entry)
        except BoundExceeded as exc:
            skipped.append({**entry, "reason": str(exc)})

    for R, M in U.pairs():
        visit({"kind": "pair", "member": _member(R, M), "ring": R.descriptor,
               "module": M.tag}, _PAIR_VOCABULARY, U, R, M)
    for R, alg in U.all_algebras():
        visit({"kind": "algebra", "member": alg.descriptor}, _ALGEBRA_VOCABULARY, U, alg)
    for facts, members in _adapter_members():
        vocab = {name: (lambda v=v: v) for name, v in facts.items()}
        for m in members:
            visit({"kind": "adapter", "member": m}, vocab)
    return results, skipped


# ---------------------------------------------------------------------------
# lem-2.7's exhaustive sweep


def _solution_tables(R) -> list:
    """solutions[a][t]: the carrier indices x with a x = t, ascending."""
    solutions = [[[] for _ in range(R.size)] for _ in range(R.size)]
    for row, by_value in zip(R.rows, solutions):
        for x, t in enumerate(row):
            by_value[t].append(x)
    return solutions


def _annihilating_cofactors(R, cf, solutions) -> list:
    """The nonzero g with f*g = 0, deg g <= deg f = d, for f given by the
    carrier indices `cf` of its coefficients: index tuples in
    `itertools.product` order, grown one coefficient at a time, with
    every x read from R's table `solutions` (`_solution_tables`, built
    once per ring).  need_k is minus the terms of coefficient k of f*g
    that read only g_0..g_(d-1), leaving out f_0 g_k.  For j < d, g_j
    runs over the x with f_0 x = need_j.  The last cell g_d appears in
    each coefficient k = d..2d exactly once, as f_(k-d) g_d, so it is
    solved from all of them at once: the x with f_0 x = need_d and
    f_i x = need_(d+i) for i = 1..d.  Only non-solutions are skipped."""
    d, zero, plus, minus = len(cf) - 1, R.index(R.zero), R.plus, R.minus
    f_rows = [R.rows[c] for c in cf]
    by_value = solutions[cf[0]]

    # coefficient k of f*g without its f_0 g_k and f_(k-d) g_d terms has
    # the f_i g_(k-i) with i in terms[k]
    terms = [range(max(1, k - d + 1), min(d, k) + 1) for k in range(2 * d + 1)]

    def need(g, k):
        total = zero
        for i in terms[k]:
            total = plus[total][f_rows[i][g[k - i]]]
        return minus[total]

    prefixes = [()]
    for j in range(d):
        prefixes = [g + (x,) for g in prefixes for x in by_value[need(g, j)]]
    found = []
    for g in prefixes:
        xs = by_value[need(g, d)]
        for i in range(1, d + 1):
            if not xs:
                break
            t, row = need(g, d + i), f_rows[i]
            xs = [x for x in xs if row[x] == t]
        found.extend(g + (x,) for x in xs)
    found.remove((zero,) * (d + 1))  # g = 0 always solves
    return found


def mccoy_witness_sweep(U: Universe, max_ring: int = _MCCOY_RING_MAX, degree: int = 2) -> dict:
    """Exhaustive annihilating pairs (f, g) of bounded degree over regular
    modules; every pair must yield a valid constructive witness.

    Runs on R's carrier indices, with R's solution tables built once per
    ring for the walk, which solves the last cell g_d from all of its
    equations at once.  Each pair the walk yields gets three checks apart
    from the walk: every coefficient 0..2d of f*g recomputed by its own
    full convolution, the content chain of `content_chain_witness` (the
    kernel of `mccoy_witness`), and its own postcondition m != 0 with
    f_i m = 0 for every i.  The chain reads only the sets of f's and g's
    coefficients, so it runs once per pair of coefficient sets in a ring
    and the pairs sharing them reuse its answer.  Extension elements are
    built only to name a failing pair."""
    out = {"pairs_checked": 0, "failures": [], "per_ring": {}}
    for R in U.rings:
        if R.size > max_ring:
            continue
        Reg = U.regular(R)
        zero, plus = R.index(R.zero), R.plus
        solutions, chains = _solution_tables(R), {}
        zeros = [zero] * (2 * degree + 1)
        count = 0
        for cf in itertools.product(range(R.size), repeat=degree + 1):
            f_rows, f_set = [R.rows[c] for c in cf], frozenset(cf)
            for cg in _annihilating_cofactors(R, cf, solutions):
                count += 1
                product = zeros.copy()
                for i, row in enumerate(f_rows):
                    for j, c in enumerate(cg):
                        product[i + j] = plus[product[i + j]][row[c]]
                if product != zeros:
                    failure = {"error": "f*g != 0: no annihilation witness exists"}
                else:
                    key = (f_set, frozenset(cg))
                    try:
                        if key not in chains:
                            chains[key] = content_chain_witness(Reg, f_rows, cg)
                        m = chains[key]
                    except RuntimeError as exc:
                        failure = {"error": str(exc)}
                    else:
                        if m != zero and all(row[m] == zero for row in f_rows):
                            continue
                        failure = {"witness": to_jsonable(R.elements[m]),
                                   "error": "postcondition violated"}
                out["failures"].append({
                    "ring": R.descriptor, "f": _poly_str(R, cf), "g": _poly_str(R, cg),
                    **failure})
        out["per_ring"][R.descriptor] = count
        out["pairs_checked"] += count
    return out


def _poly_str(R, coefficients) -> str:
    """The text of the polynomial over R (or Reg) with these coefficient indices."""
    zero = R.index(R.zero)
    return str(ring_poly(R, {(i,): R.elements[c] for i, c in enumerate(coefficients) if c != zero}))


def faithfully_flat_mccoy_algebras(U: Universe) -> list[str]:
    """Raw material log: universe algebras that are faithfully flat and McCoy."""
    return [alg.descriptor for R in U.rings for alg in _mccoy_algebras_of(U, R)]
