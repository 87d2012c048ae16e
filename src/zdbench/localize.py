"""Localization of finite rings and modules at multiplicative sets.

For a finite structure the localization collapses to a quotient: every
s in S acts invertibly on M/K where K = {m : s*m = 0 for some s in S}, and
M -> M_S is onto, so M_S is M/K with fractions resolved by inverting the
action of the denominator.  The standard pair relation
(x,s) ~ (y,t) iff u*(t*x - s*y) = 0 for some u in S is verified against the
constructed classes at build time.
"""

from __future__ import annotations

from dataclasses import dataclass

from .modules import FiniteModule, Submodule
from .rings import (FiniteRing, MultiplicativeSet, coset_quotient,
                    multiplicative_closure)

RELATION_CHECK_PAIR_LIMIT = 64   # full pair-relation verification below this
RELATION_CHECK_SAMPLE = 32       # deterministic sample size above it


@dataclass
class Localization:
    """A localized ring or module together with its construction data."""

    source: object                 # FiniteRing | FiniteModule
    kind: str                      # "ring" | "module"
    mult_set: MultiplicativeSet
    kernel: frozenset              # {x : u*x = 0 for some u in S}
    structure: object              # FiniteRing | FiniteModule on class representatives
    to_class: dict                 # source element -> class representative
    inverse_action: dict           # s -> {class: class of x with s*x ~ given}
    degenerate: bool = False

    def class_of_pair(self, x, s):
        """The class of the fraction x/s."""
        if s not in self.mult_set.elements:
            raise ValueError("denominator is not in the multiplicative set")
        return self.inverse_action[s][self.to_class[x]]

    def pairs_related(self, p, q) -> bool:
        """The defining relation: exists u in S with u*(t*x - s*y) = 0."""
        x, s = p
        y, t = q
        src = self.source
        if self.kind == "ring":
            act, sub = src.mul, src.sub
        else:
            act, sub = src.act, src.sub
        diff = sub(act(t, x), act(s, y))
        zero = src.zero
        return any(act(u, diff) == zero for u in self.mult_set.elements)


def _kernel_of(source, S: MultiplicativeSet, kind: str) -> frozenset:
    act = source.mul if kind == "ring" else source.act
    zero = source.zero
    return frozenset(
        x for x in source.elements
        if any(act(u, x) == zero for u in S.elements))


def _verify_pair_relation(loc: Localization):
    """Construction test: classes agree with the pair relation (full check on
    small carriers, deterministic sample otherwise)."""
    src = loc.source
    S = sorted(loc.mult_set.elements, key=src.ring.index if loc.kind == "module" else src.index)
    pairs = [(x, s) for s in S for x in src.elements]
    if len(pairs) > RELATION_CHECK_PAIR_LIMIT:
        stride = max(1, len(pairs) // RELATION_CHECK_SAMPLE)
        pairs = pairs[::stride]
    for p in pairs:
        for q in pairs:
            related = loc.pairs_related(p, q)
            same = loc.class_of_pair(*p) == loc.class_of_pair(*q)
            if related != same:
                raise RuntimeError(
                    f"localization relation mismatch at {p} vs {q}: "
                    f"related={related} same_class={same}")


def localize(R: FiniteRing, S: MultiplicativeSet) -> Localization:
    """R_S presented as a FiniteRing so every ring predicate applies unchanged."""
    if not R.same_ring(S.ring):
        raise ValueError("multiplicative set belongs to a different ring")
    K = _kernel_of(R, S, "ring")
    degenerate = R.zero in S.elements
    elems = ",".join(R.element_str(e) for e in R.sorted_elements(S.elements))
    descriptor = f"Localize({R.descriptor}, {{{elems}}})"
    to_class, reps = coset_quotient(R, K)
    ring_structure = FiniteRing(
        kind="localized",
        elements=reps,
        add=lambda a, b: to_class[R.add(a, b)],
        mul=lambda a, b: to_class[R.mul(a, b)],
        neg=lambda a: to_class[R.neg(a)],
        zero=to_class[R.zero],
        one=to_class[R.one],
        descriptor=descriptor,
        element_str=R.element_str,
        allow_trivial=True,
    )
    ring_structure.parts = (R, to_class)
    loc = Localization(
        source=R, kind="ring", mult_set=S, kernel=K, structure=ring_structure,
        to_class=to_class,
        inverse_action={}, degenerate=degenerate)
    loc.inverse_action = _inverse_action_maps_ring(R, ring_structure, S, to_class)
    for a in R.elements:
        for b in R.elements:
            if to_class[R.add(a, b)] != ring_structure.add(to_class[a], to_class[b]) \
                    or to_class[R.mul(a, b)] != ring_structure.mul(to_class[a], to_class[b]):
                raise RuntimeError(
                    f"canonical map of {descriptor} is not a homomorphism")
    _verify_pair_relation(loc)
    return loc


def _inverse_action_maps_ring(R, ring_structure, S, to_class) -> dict:
    maps = {}
    for s in S.elements:
        forward = {}
        s_cls = to_class[s]
        for c in ring_structure.elements:
            image = ring_structure.mul(s_cls, c)
            if image in forward:
                raise RuntimeError("localized multiplication by a denominator is not injective")
            forward[image] = c
        maps[s] = forward
    return maps


def localize_module(M: FiniteModule, S: MultiplicativeSet,
                    ring_localization: Localization | None = None) -> Localization:
    """M_S as a FiniteModule over R_S, so every module predicate applies."""
    R = M.ring
    if not R.same_ring(S.ring):
        raise ValueError("multiplicative set belongs to a different ring")
    if ring_localization is None:
        ring_localization = localize(R, S)
    RS: FiniteRing = ring_localization.structure
    K = _kernel_of(M, S, "module")
    degenerate = ring_localization.degenerate
    elems = ",".join(R.element_str(e) for e in R.sorted_elements(S.elements))
    tag = f"Localize({M.tag}, {{{elems}}})"
    to_class, reps = coset_quotient(M, K)
    # an R_S class representative is itself an element of R, and the action on
    # M/K is independent of the representative chosen
    structure = FiniteModule(
        ring=RS,
        elements=reps,
        add=lambda a, b: to_class[M.add(a, b)],
        neg=lambda a: to_class[M.neg(a)],
        zero=to_class[M.zero],
        act=lambda rc, a: to_class[M.act(rc, a)],
        tag=tag,
        element_str=M.element_str,
    )
    loc = Localization(
        source=M, kind="module", mult_set=S, kernel=K, structure=structure,
        to_class=to_class, inverse_action={}, degenerate=degenerate)
    inverse = {}
    for s in S.elements:
        forward = {}
        for c in structure.elements:
            image = to_class[M.act(s, c)]
            if image in forward:
                raise RuntimeError("localized action by a denominator is not injective")
            forward[image] = c
        inverse[s] = forward
    loc.inverse_action = inverse
    _verify_pair_relation(loc)
    return loc


def localized_ring_as_base_module(loc: Localization) -> FiniteModule:
    """R_S viewed as a module over the source ring R (action through R -> R_S)."""
    if loc.kind != "ring":
        raise ValueError("expected a ring localization")
    R: FiniteRing = loc.source
    RS: FiniteRing = loc.structure
    to_class = loc.to_class
    return FiniteModule(
        ring=R,
        elements=RS.elements,
        add=RS.add,
        neg=RS.neg,
        zero=RS.zero,
        act=lambda r, x: RS.mul(to_class[r], x),
        tag=f"{RS.descriptor} as {R.descriptor}-module",
        element_str=RS.element_str,
    )


def total_quotient(R: FiniteRing) -> Localization:
    """Localization at all non-zero-divisors; for finite rings Q = R, which is
    asserted by checking the canonical map is a ring isomorphism."""
    S = MultiplicativeSet(R, R.regular_elements())
    loc = localize(R, S)
    if len(loc.structure.elements) != R.size:
        raise RuntimeError(f"total quotient of {R.descriptor} is not isomorphic to it")
    to_class = loc.to_class
    for a in R.elements:
        for b in R.elements:
            if to_class[R.add(a, b)] != loc.structure.add(to_class[a], to_class[b]):
                raise RuntimeError("total quotient canonical map is not additive")
            if to_class[R.mul(a, b)] != loc.structure.mul(to_class[a], to_class[b]):
                raise RuntimeError("total quotient canonical map is not multiplicative")
    return loc


def natural_map_kernel(M: FiniteModule) -> Submodule:
    """Kernel of M -> M (x) Q: elements killed by some regular ring element."""
    R = M.ring
    regular = R.regular_elements()
    zero = M.zero
    K = frozenset(
        m for m in M.elements
        if any(M.act(s, m) == zero for s in regular))
    return Submodule(M, tuple(M.sorted_elements(K)), K)


def closed_multiplicative_set(R: FiniteRing, seed) -> tuple[MultiplicativeSet, bool]:
    """Close user-supplied elements under multiplication; second component
    reports whether the closure added anything (localization always needs a
    closed set, so DSL input is closed with a notice rather than rejected)."""
    S = multiplicative_closure(R, seed)
    enlarged = S.elements != (frozenset(seed) | {R.one})
    return S, enlarged
