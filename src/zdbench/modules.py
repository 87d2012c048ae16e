"""Finite modules over finite commutative rings and their zero-divisor predicates.

Covers the module-level vocabulary: Z-sets, annihilators, content ideals,
property (A), the Auslander and torsion-free inclusions, flatness decided two
independent ways (ideal-injectivity from relations, cross-checked by local
freeness), and tensor products M (x) B by base change along a basis of B.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

from .errors import BoundExceeded, PresentationUnavailable
from .rings import (Carrier, FiniteRing, Submodule, Table, annihilator_of,
                    coset_quotient, cyclic_subgroups, greedy_generators,
                    least_killed, represented_tables, span, submodule_generated,
                    subgroup_lattice, tuple_carrier, zero_divisor_scan)

DEFAULT_HOM_BUDGET = 2000          # candidate generator-image tuples
DEFAULT_PRESENTATION_BUDGET = 30000  # tuples enumerated for relation kernels and tensors
SUBMODULE_LATTICE_MAX = 512        # members; past it all_submodules raises BoundExceeded


class FiniteModule(Carrier):
    """A finite unital module with explicit carrier, addition, and scalar
    action: formulas `add`, `neg` and `act` for a base module, `tables` for
    a construction (see Carrier)."""

    def __init__(self, ring: FiniteRing, elements, add=None, neg=None, zero=None, act=None,
                 tag=None, element_str=None, tables=None):
        super().__init__(elements, add, neg, zero, element_str, f"module {tag}", ring, act, tables)
        self.ring = ring
        self.tag = tag
        # write-once caches; is_flat's is keyed by budget, since a smaller
        # budget must raise where a larger one succeeded
        self._zd = None
        self._generators = None
        self._flat: dict = {}
        self._content_cache: dict = {}
        self._ideal_action_cache: dict = {}

    def __repr__(self):
        return f"FiniteModule({self.tag} over {self.ring.descriptor})"

    @property
    def is_zero(self):
        return len(self.elements) == 1

    def descriptor(self) -> str:
        return f"{self.tag} over {self.ring.descriptor}"


@dataclass
class Verdict:
    """A predicate outcome; false verdicts carry a re-checkable witness.

    Degenerate verdicts (zero-module inputs) are flagged instead of raising
    so that sweeps over constructed families never abort mid-suite.
    """

    holds: bool
    witness: Optional[dict] = None
    degenerate: bool = False

    def __bool__(self):
        return self.holds


# ---------------------------------------------------------------------------
# constructions


def regular_module(R: FiniteRing) -> FiniteModule:
    return FiniteModule(
        ring=R, elements=R.elements, zero=R.zero,
        tables=(lambda N: R.rows, lambda N: R.plus, lambda N: R.minus),
        tag="Reg", element_str=R.element_str)


def free_module(R: FiniteRing, k: int) -> FiniteModule:
    if k < 0:
        raise ValueError("free rank must be >= 0")
    if k == 0:
        return zero_module(R, "Free(0)")
    return power_module(regular_module(R), k, tag=f"Free({k})")


def zero_module(R: FiniteRing, tag: str = "Zero") -> FiniteModule:
    z = R.zero
    return FiniteModule(
        ring=R, elements=[z], add=lambda a, b: z, neg=lambda a: z, zero=z,
        act=lambda r, m: z, tag=tag, element_str=R.element_str)


def quotient_module(M: FiniteModule, subgroup: frozenset, tag: str) -> FiniteModule:
    """M / K for a submodule element set K; cosets take least-index representatives."""
    if M.zero not in subgroup:
        raise ValueError("quotient: subgroup must contain 0")
    cls, reps = coset_quotient(M, map(M.index, subgroup))
    return module_on_representatives(M, M.ring, cls, reps, tag)


def module_on_representatives(M: FiniteModule, ring: FiniteRing, cls: list,
                              reps: list, tag: str) -> FiniteModule:
    """M's tables carried to coset representatives by `represented_tables`,
    over `ring`: M.ring for a quotient, or a localization R_S, whose class
    representatives are elements of R and act as such.  For a submodule,
    `reps` are its indices in M and `cls` a dict from each to its position."""
    return FiniteModule(
        ring=ring,
        elements=[M.elements[x] for x in reps],
        zero=M.elements[reps[cls[M.index(M.zero)]]],
        tables=represented_tables(M, cls, reps),
        tag=tag,
        element_str=M.element_str,
    )


def cyclic_module(R: FiniteRing, I: Submodule) -> FiniteModule:
    if not R.same_ring(I.ring):
        raise ValueError("cyclic module: ideal belongs to a different ring")
    return quotient_module(regular_module(R), I.elements, "Cyclic" + R.tuple_str(I.generators))


def direct_sum(M1: FiniteModule, M2: FiniteModule) -> FiniteModule:
    if not M1.ring.same_ring(M2.ring):
        raise ValueError("direct sum: modules over different rings")
    # r(a, b) = (ra, rb)
    return FiniteModule(ring=M1.ring, tag=f"Sum({M1.tag},{M2.tag})",
                        **tuple_carrier((M1, M2), lambda: zip(M1.rows, M2.rows)))


def power_module(M: FiniteModule, t: int, tag: str | None = None) -> FiniteModule:
    """M^t with t-tuple carrier, first coordinate varying fastest: M + M^(t-1).

    Callers bound |M|^t before asking for it."""
    if t < 1:
        raise ValueError("power_module needs t >= 1")
    return FiniteModule(ring=M.ring, tag=tag or f"{M.tag}^{t}",
                        **tuple_carrier((M,) * t, lambda: ((row,) * t for row in M.rows)))


def generating_set(M: FiniteModule) -> tuple:
    """Greedy small generating set in carrier order."""
    if M._generators is None:
        M._generators = tuple(map(M.elements.__getitem__, greedy_generators(M, range(M.size))))
    return M._generators


def all_submodules(M: FiniteModule) -> list[Submodule]:
    """Every submodule exactly once, ordered by size, then by element indices."""
    return subgroup_lattice(M, M.plus, cyclic_subgroups(M),
                            lambda gens, elements: Submodule(M, gens, elements),
                            SUBMODULE_LATTICE_MAX)


# ---------------------------------------------------------------------------
# hom module


def hom_module(M: FiniteModule, budget: int = DEFAULT_HOM_BUDGET) -> FiniteModule:
    """All R-linear maps M -> M with action (r.f)(x) = r.f(x).

    Raises BoundExceeded when |M|^k > `budget`, the one hom budget gate.  A
    linear f has ann(g) in ann(f(g)), as rg = 0 forces r f(g) = 0, so each
    generator g takes candidate images only from (0 :_M ann g).  The maps
    form a group under pointwise +, and a map's tuple of generator images is
    additive in the map.  So the candidate tuples are walked in
    lexicographic order, and only a tuple that is not yet the image tuple of
    a map found so far is extended by `_extend_linear`, which returns linear
    maps only; it reads the action rows of an additive generating set S of
    R, which `span` finds, so its walk and checks cost |M| k |S| steps
    rather than |M| k |R|.  Each new map joins the group found so far by
    coset extension along pointwise sums, as in `span`.  All of it runs on
    carrier indices over `_tables(M)`; maps are ordered by their index
    tuples and turned back into elements, and the tables of Hom key each
    map by its generator images.
    """
    R, gens = M.ring, generating_set(M)  # () for the zero module
    k = len(gens)
    if M.size ** k > budget:
        raise BoundExceeded(
            f"hom enumeration for {M.tag}: {M.size}^{k} candidates exceed budget {budget}")

    add_t, act_t = _tables(M)
    zero = M.index(M.zero)
    gen_idx = [M.index(g) for g in gens]
    # (0 :_M ann g): the columns of act_t that vanish on every row killing g
    images = [[v for v in range(M.size) if all(row[v] == zero for row in act_t if row[g] == zero)]
              for g in gen_idx]
    S: list = []  # an additive generating set of R: {1} for Z/n
    span(R.plus, R.index(R.zero), range(R.size), S)
    act_s = [act_t[s] for s in S]

    group = {(zero,) * k: (zero,) * M.size}  # generator images -> map
    for chosen in itertools.product(*images):
        if chosen in group:
            continue
        f = _extend_linear(add_t, act_s, zero, gen_idx, chosen)
        if f is None:
            continue
        # the layers H + f, H + 2f, ...: a sum's images first, its map if new
        image_rows, rows = [add_t[v] for v in chosen], [add_t[a] for a in f]
        layer = list(group.items())
        while layer:
            new = []
            for images_h, h in layer:
                images_s = tuple(map(list.__getitem__, image_rows, images_h))
                if images_s not in group:
                    group[images_s] = s = tuple(map(list.__getitem__, rows, h))
                    new.append((images_s, s))
            layer = new
    keys, found = zip(*sorted(group.items(), key=lambda item: item[1]))
    maps = [tuple(map(M.elements.__getitem__, f)) for f in found]
    # pointwise on f's generator images: (r.f)(g) = r.f(g), (f+h)(g) = f(g)+h(g)
    position = {f: i for i, f in enumerate(keys)}

    def plus_row(i):
        rows = [add_t[a] for a in keys[i]]
        return [position[tuple(map(list.__getitem__, rows, h))] for h in keys]

    zero_map = tuple(M.zero for _ in M.elements)

    def element_str(f):
        pairs = ",".join(
            f"{M.element_str(g)}->{M.element_str(f[i])}" for g, i in zip(gens, gen_idx))
        return f"[{pairs}]" if gens else "[0]"

    return FiniteModule(
        ring=R, elements=maps, zero=zero_map,
        tables=(lambda H: [[position[tuple(map(act_r.__getitem__, f))] for f in keys]
                           for act_r in act_t],
                lambda H: Table(plus_row),
                lambda H: [position[tuple(map(M.minus.__getitem__, f))] for f in keys]),
        tag=f"Hom({M.tag})", element_str=element_str)


def _tables(M: FiniteModule):
    """(add, act): M's cached tables, the ones every scan of M reads, with
    every row of add = M.plus composed (add[i][j] = i + j); act is M.rows."""
    plus = M.plus
    return [plus[x] for x in range(M.size)], M.rows


def _extend_linear(add, act, zero, gens, images):
    """The R-linear f with f(gens) = images, or None when there is none.

    Carrier indices over the tables of `_tables`; f[m] is the image of m,
    and `act` holds the action rows of an additive generating set S of R
    (all of R's rows also do).  From f(0) = 0 a walk sets or checks
    f(m + s g_i) = f(m) + s v_i, with v_i = images[i], for every reached m,
    every s in S and every i, and returns None on a conflict.  The rule then
    holds for every r in R: it holds for r = 0, and if it holds for r and s
    at every m, then f(m + (r + s) g_i) = f(m + r g_i + s g_i)
    = f(m + r g_i) + s v_i = f(m) + (r + s) v_i; every r is a sum of
    elements of S.  For the same reason the terms s g_i reach what the terms
    r g_i do, and any f the rule over R admits passes the walk over S, so
    the answer is the one the walk over all of R gives.  A returned f
    reached every m, so each m is a sum of terms r g_i and the rule holds on
    all of M.  By M's module axioms f is then linear: f of a sum of terms
    r g_i is the sum of the r v_i (the rule from 0, term by term), so
    f(g_i) = v_i, and f(t b) = t f(b) as both are the sum of the (t r) v_i
    over b's terms; f(a + b) = f(a) + f(b) by induction on b's terms:
    f(a + b' + r g_i) = f(a + b') + r v_i = f(a) + f(b') + r v_i
    = f(a) + f(b' + r g_i).
    """
    f = [None] * len(add)
    f[zero] = zero
    steps = [list(zip([row[g] for row in act], [row[v] for row in act]))
             for g, v in zip(gens, images)]
    queue = [zero]
    while queue:
        m = queue.pop()
        add_m, add_fm = add[m], add[f[m]]
        for step in steps:
            for rg, rv in step:
                m2 = add_m[rg]
                f2 = add_fm[rv]
                known = f[m2]
                if known is None:
                    f[m2] = f2
                    queue.append(m2)
                elif known != f2:
                    return None
    if None in f:
        return None
    return f


# ---------------------------------------------------------------------------
# predicates


def zero_divisors_module(M: FiniteModule) -> frozenset:
    """{r in R : r*m = 0 for some nonzero m in M}; empty for the zero module."""
    if M._zd is None:
        M._zd = zero_divisor_scan(M)
    return M._zd


def ann(M: FiniteModule, element=None) -> Submodule:
    """Annihilator ideal of the whole module, or of one element."""
    return annihilator_of(M, M.elements if element is None else (element,))


def ideal_action(I: Submodule, M: FiniteModule) -> Submodule:
    """The submodule I*M."""
    if not I.ring.same_ring(M.ring):
        raise ValueError("ideal_action: ring mismatch")
    key = I.elements
    cached = M._ideal_action_cache.get(key)
    if cached is None:
        # r(a m) = a(r m): the seed, the rows of I's generators, is R-stable,
        # so its additive span is I*M
        E = M.elements
        seed = {i for a in I.generators for i in M.rows[M.ring.index(a)]}
        closed = span(M.plus, M.index(M.zero), seed)
        cached = Submodule(M, tuple(E[i] for i in sorted(seed)),
                           frozenset(map(E.__getitem__, closed)))
        M._ideal_action_cache[key] = cached
    return cached


def content_of_element(M: FiniteModule, m) -> Submodule:
    """c(m): intersection of all ideals I with m in I*M."""
    cached = M._content_cache.get(m)
    if cached is not None:
        return cached
    M.index(m)  # raises on an element outside M
    R = M.ring
    common = None
    for I in R.ideals():
        if m in ideal_action(I, M).elements:
            common = I.elements if common is None else (common & I.elements)
    # the whole ring always qualifies, so common is never None
    result = Submodule(R, tuple(R.sorted_elements(common)), frozenset(common))
    M._content_cache[m] = result
    return result


def is_content_module(M: FiniteModule) -> Verdict:
    """m in c(m)M for all m; witness on failure is the offending element."""
    for m in M.elements:
        c = content_of_element(M, m)
        if m not in ideal_action(c, M).elements:
            return Verdict(False, witness={"kind": "content", "element": m})
    return Verdict(True)


def content_surjective(M: FiniteModule) -> bool:
    """For every s in R there is an x in M with c(x) = (s).

    Raw hypothesis check used by the flat-content module family; no further
    semantics attached.
    """
    R = M.ring
    contents = {content_of_element(M, m).elements for m in M.elements}
    for s in R.elements:
        if submodule_generated(R, [s]).elements not in contents:
            return False
    return True


def has_property_A(M: FiniteModule) -> Verdict:
    """Every ideal inside Z(M) kills some nonzero element of M.

    All ideals of a finite ring are finitely generated, so the whole lattice
    is tested.  Z(M) holds 0, as M is nonzero, so each ideal is compared whole.
    """
    if M.is_zero:
        return Verdict(True, degenerate=True)
    zd = zero_divisors_module(M)
    for I in M.ring.ideals():
        if I.elements <= zd and least_killed(M, I.generators) is None:
            return Verdict(False, witness={"kind": "property_a", "ideal": tuple(I.small_generators())})
    return Verdict(True)


def is_auslander(M: FiniteModule) -> Verdict:
    """Z(R) is contained in Z(M); witness on failure: r in Z(R) \\ Z(M)."""
    return _inclusion(M, "auslander", M.ring.zero_divisors(), zero_divisors_module(M))


def is_torsion_free(M: FiniteModule) -> Verdict:
    """Z(M) is contained in Z(R); witness on failure: r in Z(M) \\ Z(R)."""
    return _inclusion(M, "torsion_free", zero_divisors_module(M), M.ring.zero_divisors())


def _inclusion(M: FiniteModule, kind: str, inner: frozenset, outer: frozenset) -> Verdict:
    """inner \\ {0} within outer, degenerate on the zero module; witness on
    failure: the least r in inner \\ outer, r != 0."""
    if M.is_zero:
        return Verdict(False, degenerate=True)
    R = M.ring
    extra = inner - outer - {R.zero}
    if not extra:
        return Verdict(True)
    return Verdict(False, witness={"kind": kind, "element": min(extra, key=R.index)})


# ---------------------------------------------------------------------------
# presentations and flatness


def presentation(M: FiniteModule, budget: int = DEFAULT_PRESENTATION_BUDGET):
    """(generators, relation tuples N) with M = R^k / N, k = len(generators)."""
    R, gens = M.ring, generating_set(M)  # () for the zero module
    k = len(gens)
    if R.size ** k > budget:
        raise PresentationUnavailable(
            f"presentation of {M.tag}: |R|^{k} = {R.size ** k} exceeds budget {budget}")
    relations = _relations(M, [M.index(g) for g in gens]) if gens else []
    return gens, frozenset(tuple(map(R.elements.__getitem__, rel)) for rel in relations)


def _relations(X: Carrier, gens: list) -> list:
    """Every tuple of scalar indices (r_1..r_k), k >= 1, with r_1 g_1 + ... +
    r_k g_k = 0 in X: grouped by partial sum, one generator at a time along
    the rows X.plus[r g_i], with r_k read off from r_k g_k = -(sum)."""
    layer = {X.index(X.zero): [()]}
    for g in gens[:-1]:
        nxt: dict = {}
        for r, row in enumerate(X.rows):
            step = X.plus[row[g]]
            for total, prefixes in layer.items():
                nxt.setdefault(step[total], []).extend([p + (r,) for p in prefixes])
        layer = nxt
    last: dict = {}
    for r, row in enumerate(X.rows):
        last.setdefault(row[gens[-1]], []).append(r)
    return [p + (r,) for total, prefixes in layer.items()
            for r in last.get(X.minus[total], ()) for p in prefixes]


def tensor_with_algebra(M: FiniteModule, algebra) -> FiniteModule:
    """M tensor B over R = algebra.base, by base change along an R-basis of B.

    With b_1..b_d the basis of `_free_basis` and b b_j = sum_l c_jl(b) b_l,
    M (x) B = M (x) R^d = M^d, carrying B's multiplication: b sends (m_j) to
    the tuple whose l-th coordinate is sum_j c_jl(b) m_j.  The carrier, plus
    and minus are M^d's.  Raises ValueError when B is not free over R, and
    BoundExceeded when |M|^d exceeds DEFAULT_PRESENTATION_BUDGET.
    """
    B, R, n = algebra.ring, algebra.base, M.size
    if not M.ring.same_ring(R):
        raise ValueError(f"algebra base {R.descriptor} differs from ring {M.ring.descriptor}")
    d = next(d for d in itertools.count(1) if R.size ** d >= B.size)
    if n ** d > DEFAULT_PRESENTATION_BUDGET:
        raise BoundExceeded(f"tensor: |{M.tag}|^{d} = {n ** d} exceeds budget "
                            f"{DEFAULT_PRESENTATION_BUDGET}")
    basis, coords = _free_basis(algebra.as_module(), d)
    P = power_module(M, d)

    def row(row_b):  # coordinate by coordinate; (y_l) has index sum_l y_l |M|^l
        out = [0] * P.size
        for c_l in reversed(list(zip(*(coords[row_b[b]] for b in basis)))):
            out = [n * high + y for high, y in zip(out, _combination(M, c_l))]
        return out

    return FiniteModule(ring=B, elements=P.elements, zero=P.zero, element_str=P.element_str,
                        tables=(lambda T: [row(r) for r in B.rows],
                                lambda T: P.plus, lambda T: P.minus),
                        tag=f"Tensor({M.tag}, {algebra.descriptor})")


def _free_basis(BR: FiniteModule, d: int):
    """(basis, coords): the first d-subset of BR's indices, in carrier order,
    whose R-combinations sum r_j b_j are pairwise distinct, |R|^d = |BR|;
    coords[x] is the tuple of R-indices (r_j) of x.  ValueError if none."""
    R = BR.ring
    for basis in itertools.combinations(range(BR.size), d):
        coords = {BR.index(BR.zero): ()}
        for b in basis:
            size = len(coords) * R.size
            coords = {BR.plus[x][row[b]]: c + (r,)
                      for x, c in coords.items() for r, row in enumerate(BR.rows)}
            if len(coords) < size:
                break
        else:  # |R|^d distinct combinations in BR, and |R|^d >= |BR|
            return basis, coords
    raise ValueError(f"{BR.tag} is not free over {R.descriptor}")


def _combination(M: FiniteModule, scalars) -> list:
    """The index of sum_i r_i m_i at each index of (m_1..m_t) in M^t, the
    first coordinate fastest, for R-indices `scalars` = (r_1..r_t)."""
    out = M.rows[scalars[-1]]
    for r in scalars[-2::-1]:
        shifts = [M.plus[v] for v in M.rows[r]]
        out = [shift[total] for total in out for shift in shifts]
    return out


def ideal_tensor_kernel(I: Submodule, M: FiniteModule,
                        budget: int = DEFAULT_PRESENTATION_BUDGET):
    """Injectivity data for I (x) M -> M; returns (injective, witness)."""
    R = M.ring
    gens = I.small_generators()
    if I.is_zero:
        return True, None
    t = len(gens)
    if M.size ** t > budget:
        raise BoundExceeded(f"flatness check for {M.tag}: |M|^{t} exceeds budget {budget}")
    # relations of I as a module: kernel of R^t -> I
    if R.size ** t > budget:
        raise BoundExceeded(f"flatness check for {M.tag}: |R|^{t} exceeds budget {budget}")
    # on indices: (x_i) in P = M^t has index sum x_i |M|^i
    gen_idx = [R.index(a) for a in gens]
    P = power_module(M, t)
    n, rows, zero_m = M.size, M.rows, M.index(M.zero)
    # r (n_i m)_i = (n_i (r m))_i: the seed is R-stable, so K is its additive span
    seed = {sum(rows[c][m] * n ** i for i, c in enumerate(rel))
            for rel in _relations(R, gen_idx) for m in range(n)}
    K = span(P.plus, P.index(P.zero), seed)
    # K lies in the kernel of x -> sum a_i x_i, whose image is I*M: so the
    # map is injective iff |K| |I*M| = |P|
    if len(K) * len(ideal_action(I, M).elements) == P.size:
        return True, None
    for x, total in enumerate(_combination(M, gen_idx)):
        if total == zero_m and x not in K:
            return False, {"kind": "flat", "ideal": gens, "kernel_element": P.elements[x],
                           "tensor_size": P.size // len(K)}
    raise RuntimeError(f"flatness check for {M.tag}: |K| |I*M| != |P|, yet K is the whole kernel")


def _flat_by_local_freeness(M: FiniteModule) -> bool:
    """Oracle: finite ring = product of local rings; flat f.g. = free locally."""
    for e, factor, maximal in M.ring.local_factors():
        row_e = M.rows[e]
        Me = [m for m in range(M.size) if row_e[m] == m]
        if len(Me) == 1:
            continue  # zero factor component: free of rank 0
        # m_e * M_e as a subgroup
        sub = span(M.plus, M.index(M.zero), {M.rows[a][m] for a in maximal for m in Me})
        # free of rank k: |M_e| = |eR|^k and |M_e / m_e M_e| = residue^k
        residue = len(factor) // len(maximal)
        rank = round(math.log(len(Me), len(factor)))
        if len(Me) != len(factor) ** rank or len(Me) // len(sub) != residue ** rank:
            return False
    return True


def is_flat(M: FiniteModule, budget: int = DEFAULT_PRESENTATION_BUDGET) -> Verdict:
    """Flatness by ideal-injectivity, cross-checked against local freeness.

    The two deciders are independent; disagreement raises rather than
    picking a side.
    """
    cached = M._flat.get(budget)
    if cached is not None:
        return cached
    R = M.ring
    verdict = Verdict(True)
    for I in R.ideals():
        ok, witness = ideal_tensor_kernel(I, M, budget)
        if not ok:
            verdict = Verdict(False, witness=witness)
            break
    oracle = _flat_by_local_freeness(M)
    if oracle != verdict.holds:
        raise RuntimeError(
            f"flatness deciders disagree on {M.tag} over {R.descriptor}: "
            f"ideal-injectivity={verdict.holds} local-freeness={oracle}")
    M._flat[budget] = verdict
    return verdict


def is_faithfully_flat(M: FiniteModule, budget: int = DEFAULT_PRESENTATION_BUDGET) -> Verdict:
    """Flat and M/pM nonzero at every maximal ideal p; not memoized, as its
    callers memoize it or ask once."""
    verdict = is_flat(M, budget=budget)
    if verdict.holds:
        for p in M.ring.maximal_ideals():
            if len(ideal_action(p, M).elements) == M.size:
                verdict = Verdict(False, witness={
                    "kind": "faithfully_flat", "ideal": p.small_generators()})
                break
    return verdict


# ---------------------------------------------------------------------------
# axiom verification


def verify_module_axioms(M: FiniteModule):
    """Abelian-group and unital-action checks, full, by generator reduction.

    Sweeps on the tables of `_tables`, in order, reporting the first
    offending elements: identity and inverses; commutativity on all pairs;
    then, with g over the greedy generators G that `span` appends,
    associativity (a+g)+c = a+(g+c), (rs)g = r(sg), (r+s)g = rg+sg and
    r(a+g) = ra+rg.  Passing all of them makes M a module, by induction on
    sums of generators.  Associativity (Light's test): the g that pass
    include 0 (a+0 = a = 0+a) and are closed under +, since
    (a+(g+h))+c = ((a+g)+h)+c = (a+g)+(h+c) = a+(g+(h+c)) = a+((g+h)+c);
    so all of M passes.  In the finite group M, a law that holds on G and
    whose passing elements are closed under + holds everywhere.
    Additivity: r(a+(b+c)) = r(a+b)+rc = ra+rb+rc = ra+r(b+c).  Then
    (rs)(m+n) = r(sm)+r(sn) = r(s(m+n)) and (r+s)(m+n) = rm+sm+rn+sn =
    r(m+n)+s(m+n).  The cost is O(|M|^2 |G| + |R|^2 |G| + |R| |M| |G|)
    instead of |M|^3.
    """
    R = M.ring
    E = M.elements
    n = len(E)
    where = M.descriptor()
    add, act = _tables(M)
    zero, minus = M.index(M.zero), M.minus
    one = act[R.index(R.one)]
    for m in range(n):
        if add[m][zero] != m:
            raise ValueError(f"{where}: m + 0 != m at {E[m]}")
        if add[m][minus[m]] != zero:
            raise ValueError(f"{where}: m + (-m) != 0 at {E[m]}")
        if one[m] != m:
            raise ValueError(f"{where}: 1*m != m at {E[m]}")
    for a in range(n):
        row = add[a]
        for b in range(a + 1, n):
            if row[b] != add[b][a]:
                raise ValueError(f"{where}: addition not commutative at {E[a]},{E[b]}")
    # span needs + commutative, checked above; on an unchecked table it can
    # only gain generators, as every index it adds is a sum of earlier ones:
    # M stays +-generated, all Light's test needs
    gens: list = []
    span(add, zero, range(n), gens)
    for a in range(n):
        row_a = add[a]
        for g in gens:
            row_ag, row_g = add[row_a[g]], add[g]
            for c in range(n):
                if row_ag[c] != row_a[row_g[c]]:
                    raise ValueError(
                        f"{where}: addition not associative at {E[a]},{E[g]},{E[c]}")
    for i, (r, act_r, mul_r) in enumerate(zip(R.elements, act, R.rows)):
        for s, act_s, rs, r_s in zip(R.elements, act, mul_r, R.plus[i]):
            act_rs, act_r_s = act[rs], act[r_s]
            for g in gens:
                if act_rs[g] != act_r[act_s[g]]:
                    raise ValueError(f"{where}: (rs)m != r(sm) at {r},{s},{E[g]}")
                if act_r_s[g] != add[act_r[g]][act_s[g]]:
                    raise ValueError(f"{where}: (r+s)m != rm+sm at {r},{s},{E[g]}")
    for r, act_r in zip(R.elements, act):
        for a in range(n):
            row_a = add[a]
            add_ra = add[act_r[a]]
            for g in gens:
                if act_r[row_a[g]] != add_ra[act_r[g]]:
                    raise ValueError(
                        f"{where}: r(a+b) != ra+rb at {r},{E[a]},{E[g]}")
