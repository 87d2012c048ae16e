"""Deterministic enumeration of the small-structure universe.

Rings: Z/n for 2 <= n <= 12, binary products of Z/a with a <= 4, and monic
polynomial quotients (nilpotent and Galois-type relations) over small Z/n.
Modules per ring: the regular module, Free(2), every cyclic quotient, sums of
two cyclics, and Hom of each cyclic, capped by size bounds and the hom
budget.  Algebras per ring: the ring over itself, the diagonal into its
square, and polynomial quotient extensions over Zmod bases.

The integer adapter (Z/n over Z, decided by gcd arithmetic) is in `statements`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, fields

from .errors import BoundExceeded
from .extensions import (DEFAULT_BRUTE_BUDGET, DEFAULT_SERIES_PRECISION,
                         FiniteAlgebra, diagonal_algebra, extension_algebra,
                         self_algebra)
from .modules import (DEFAULT_HOM_BUDGET, DEFAULT_PRESENTATION_BUDGET, FiniteModule,
                      cyclic_module, direct_sum, free_module, hom_module,
                      regular_module, verify_module_axioms)
from .rings import (FiniteRing, Zmod, poly_quotient, product_ring,
                    verify_ring_axioms)


@dataclass(frozen=True)
class UniverseLimits:
    zmod_max: int = 12
    product_component_max: int = 4          # 0 disables product rings
    max_ring: int = 32
    max_module: int = 160
    max_algebra: int = 64
    max_sum_pairs: int = 6
    hom_budget: int = DEFAULT_HOM_BUDGET
    presentation_budget: int = DEFAULT_PRESENTATION_BUDGET
    brute_budget: int = DEFAULT_BRUTE_BUDGET
    degree_bound: int = 2
    series_precision: int = DEFAULT_SERIES_PRECISION
    axiom_check_max: int = 64

    def __post_init__(self):
        for f in fields(self):
            least = 1 if f.name == "series_precision" else 0
            if getattr(self, f.name) < least:
                raise ValueError(f"{f.name} must be >= {least}, got {getattr(self, f.name)}")

    def as_dict(self) -> dict:
        """The limits reports echo, in field order.  `axiom_check_max` is left
        out: the pinned report digests predate it, so echoing it is a report
        change of its own, made with the digests re-pinned."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "axiom_check_max"}


DEFAULT_LIMITS = UniverseLimits()

# monic relations used for polynomial-quotient algebras, listed as
# coefficient tuples from the constant term up
_GALOIS_RELATION_DEG2 = (1, 1, 1)    # x^2 + x + 1
_GALOIS_RELATION_DEG3 = (1, 1, 0, 1)  # x^3 + x + 1
# the polynomial-quotient rings Z/n[x]/(f), as (n, f)
_POLYQUOT_RINGS = ((2, (0, 0, 1)), (2, (0, 0, 0, 1)), (3, (0, 0, 1)), (3, (0, 0, 0, 1)),
                   (4, (0, 0, 1)), (4, _GALOIS_RELATION_DEG2))


@dataclass
class Universe:
    limits: UniverseLimits
    rings: list[FiniteRing] = field(default_factory=list)
    modules: dict = field(default_factory=dict)     # ring descriptor -> [FiniteModule]
    algebras: dict = field(default_factory=dict)    # ring descriptor -> [FiniteAlgebra]
    counts: dict = field(default_factory=dict)
    caches: dict = field(default_factory=dict)      # scratch memo space for sweeps

    def pairs(self):
        for R in self.rings:
            for M in self.modules[R.descriptor]:
                yield R, M

    def all_algebras(self):
        for R in self.rings:
            for B in self.algebras[R.descriptor]:
                yield R, B

    def regular(self, R: FiniteRing) -> FiniteModule:
        """The universe's (cache-warm) regular module of R."""
        for M in self.modules[R.descriptor]:
            if M.tag == "Reg":
                return M
        raise KeyError(f"no regular module for {R.descriptor}")


def generate_universe(limits: UniverseLimits = DEFAULT_LIMITS) -> Universe:
    U = Universe(limits=limits)
    # every Z/n, then the products Z/a x Z/b (a <= b) and PolyQuot rings within max_ring
    components = range(2, limits.product_component_max + 1)
    candidates = ([product_ring(Zmod(a), Zmod(b))
                   for a, b in itertools.combinations_with_replacement(components, 2)]
                  + [poly_quotient(Zmod(n), rel) for n, rel in _POLYQUOT_RINGS])
    rings = ([Zmod(n) for n in range(2, limits.zmod_max + 1)]
             + [R for R in candidates if R.size <= limits.max_ring])

    for R in rings:
        verify_ring_axioms(R, bound=limits.axiom_check_max)
    U.rings = rings

    for R in rings:
        mods: list[FiniteModule] = [regular_module(R)]
        if R.size ** 2 <= limits.max_module:
            mods.append(free_module(R, 2))
        cyclics = []
        for I in R.ideals():
            if I.is_whole:
                continue  # the zero module is constructible but not a universe member
            cyclics.append(cyclic_module(R, I))
        mods.extend(cyclics)
        # the first max_sum_pairs pairs i <= j of cyclics whose sum fits
        fitting = ((A, B) for A, B in itertools.combinations_with_replacement(cyclics, 2)
                   if A.size * B.size <= limits.max_module)
        mods.extend(itertools.starmap(direct_sum, itertools.islice(fitting, limits.max_sum_pairs)))
        for C in cyclics:
            try:
                mods.append(hom_module(C, budget=limits.hom_budget))
            except BoundExceeded:
                pass
        for M in mods:
            verify_module_axioms(M)
        U.modules[R.descriptor] = mods

    for R in rings:
        algs: list[FiniteAlgebra] = [self_algebra(R)]
        if R.size ** 2 <= limits.max_algebra:
            algs.append(diagonal_algebra(R, product_ring(R, R)))
        if R.kind == "zmod":
            n = R.size
            candidates = [(0, 0, 1), _GALOIS_RELATION_DEG2]
            if n in (2, 3):
                candidates.append(_GALOIS_RELATION_DEG3)
            for rel in candidates:
                B = poly_quotient(R, rel)
                if B.size <= limits.max_algebra:
                    algs.append(extension_algebra(B, R))
        U.algebras[R.descriptor] = algs

    # per ring kind and per module head, in report order
    counts = dict.fromkeys(["rings_zmod", "rings_product", "rings_polyquot", "modules_reg",
                            "modules_free", "modules_cyclic", "modules_sum", "modules_hom"], 0)
    for R in rings:
        counts["rings_" + R.kind] += 1
    for R, M in U.pairs():
        counts["modules_" + M.tag.split("(")[0].lower()] += 1
    U.counts = {**counts, "algebras": sum(map(len, U.algebras.values()))}
    return U

