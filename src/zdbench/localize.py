"""Localization of finite rings and modules at multiplicative sets.

For a finite structure the localization collapses to a quotient: every
s in S acts invertibly on M/K where K = {m : s*m = 0 for some s in S}, and
M -> M_S is onto, so M_S is M/K with fractions resolved by inverting the
action of the denominator.  Rings and modules take one path, `_localized`:
K from the denominators' rows, its cosets, the class map and the structure
on class representatives, then `_finish`, whose checks prove the classes
match the standard pair relation for every pair, without comparing pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .extensions import FiniteAlgebra
from .modules import FiniteModule, Submodule, module_on_representatives
from .rings import (FiniteRing, MultiplicativeSet, coset_quotient,
                    multiplicative_closure, represented_tables)


@dataclass
class Localization:
    """A localized ring or module together with its construction data."""

    source: object                 # FiniteRing | FiniteModule
    mult_set: MultiplicativeSet
    kernel: frozenset              # {x : u*x = 0 for some u in S}
    structure: object              # FiniteRing | FiniteModule on class representatives
    to_class: dict                 # source element -> class representative


def _kernel(source, denominators) -> frozenset:
    """{x : u*x = 0 for some denominator u}, read from the denominators' rows."""
    zero, rows, E = source.index(source.zero), source.rows, source.elements
    return frozenset(E[x] for u in denominators
                     for x, ux in enumerate(rows[source.scalars.index(u)]) if ux == zero)


def _finish(loc: Localization) -> Localization:
    """Check the classes on the source's index tables.

    With phi = to_class, K the kernel and C the classes (the structure's
    carrier), the checks are: (1) each k in K has u*k = 0 for some u in S;
    (2) each phi(x) is in C, with x - phi(x) in K; (3) for each s in S,
    c -> phi(s*c) is injective on C.  They prove class(x/s) = class(y/t)
    iff (x,s) ~ (y,t), for every pair.  T = {x : u*x = 0 for some u in S}
    is a submodule, as S is multiplicatively closed, and K is in T by (1).
    If c, c' in C have c - c' in T, then u*c = u*c' for some u in S, so
    c = c' by (3).  With (2), C is a transversal of X/T and phi(x) is its
    member in x + T.  So every t in T has phi(t) = phi(0) in T, and
    t - phi(0), which runs over T, is in K by (2): K = T.  By (3) each
    c -> phi(s*c) is a bijection of C, and class(x/s) is the c in C with
    s*c - x in K.  For c = class(x/s), d = class(y/t): t*x - s*y =
    st*(c-d) mod K, which is in K iff phi(st*c) = phi(st*d) iff c = d, by
    (3) at st.  The structure's operations, computed on representatives,
    are then those of X/K.  phi, C, K and S are mapped to carrier indices,
    and s*x, x + y and -x read from `rows`, `plus` and `minus`.  The cost
    is O(|K| |S| + |X| + |S| |C|).
    """
    src = loc.source
    E, index, plus, minus = src.elements, src.index, src.plus, src.minus
    phi = [index(loc.to_class[x]) for x in E]
    classes = [index(c) for c in loc.structure.elements]
    S = [src.rows[src.scalars.index(s)] for s in loc.mult_set.elements]
    for row in S:
        if len({phi[row[c]] for c in classes}) < len(classes):
            raise RuntimeError("localized action of a denominator is not injective")
    zero = index(src.zero)
    for k in loc.kernel:
        if all(row[index(k)] != zero for row in S):
            raise RuntimeError(f"kernel element {k!r} is killed by no denominator")
    K, class_set = frozenset(map(index, loc.kernel)), frozenset(classes)
    for x, c in enumerate(phi):
        if c not in class_set or plus[x][minus[c]] not in K:
            raise RuntimeError(f"{E[x]!r} is not sent to the representative of its coset")
    return loc


def _localized(source, S: MultiplicativeSet, structure) -> Localization:
    """R_S or M_S: `structure(cls, reps, to_class)` on the kernel's cosets."""
    if not source.scalars.same_ring(S.ring):
        raise ValueError("multiplicative set belongs to a different ring")
    E = source.elements
    K = _kernel(source, S.elements)
    cls, reps = coset_quotient(source, map(source.index, K))
    to_class = {x: E[reps[c]] for x, c in zip(E, cls)}
    return _finish(Localization(
        source=source, mult_set=S, kernel=K,
        structure=structure(cls, reps, to_class), to_class=to_class))


def localize(R: FiniteRing, S: MultiplicativeSet) -> Localization:
    """R_S presented as a FiniteRing so every ring predicate applies unchanged."""
    def ring_structure(cls, reps, to_class):
        RS = FiniteRing(
            kind="localized",
            elements=[R.elements[x] for x in reps],
            add=None, mul=None, neg=None,
            tables=represented_tables(R, cls, reps),
            zero=to_class[R.zero],
            one=to_class[R.one],
            descriptor=f"Localize({R.descriptor}, {S.display()})",
            element_str=R.element_str,
            allow_trivial=True,
        )
        RS.parts = (R, to_class)
        return RS
    return _localized(R, S, ring_structure)


def localize_module(M: FiniteModule, S: MultiplicativeSet,
                    ring_localization: Localization | None = None) -> Localization:
    """M_S as a FiniteModule over R_S, so every module predicate applies."""
    if ring_localization is None:
        ring_localization = localize(M.ring, S)
    # the action on M/K is independent of the R_S representative chosen
    return _localized(M, S, lambda cls, reps, _: module_on_representatives(
        M, ring_localization.structure, cls, reps, f"Localize({M.tag}, {S.display()})"))


def localized_ring_as_base_module(loc: Localization) -> FiniteModule:
    """R_S viewed as a module over the source ring R (action through R -> R_S)."""
    if not isinstance(loc.structure, FiniteRing):
        raise ValueError("expected a ring localization")
    return FiniteAlgebra(loc.structure, loc.source, loc.to_class).as_module()


def total_quotient(R: FiniteRing) -> Localization:
    """Localization at all non-zero-divisors; for finite rings Q = R, which is
    asserted by checking that the canonical homomorphism is injective."""
    loc = localize(R, MultiplicativeSet(R, R.regular_elements()))
    if len(loc.structure.elements) != R.size:
        raise RuntimeError(f"total quotient of {R.descriptor} is not isomorphic to it")
    return loc


def natural_map_kernel(M: FiniteModule) -> Submodule:
    """Kernel of M -> M (x) Q: elements killed by some regular ring element."""
    K = _kernel(M, M.ring.regular_elements())
    return Submodule(M, tuple(M.sorted_elements(K)), K)


def closed_multiplicative_set(R: FiniteRing, seed) -> tuple[MultiplicativeSet, bool]:
    """Close user-supplied elements under multiplication; second component
    reports whether the closure added anything (localization always needs a
    closed set, so DSL input is closed with a notice rather than rejected)."""
    S = multiplicative_closure(R, seed)
    enlarged = S.elements != (frozenset(seed) | {R.one})
    return S, enlarged
