"""Polynomial, monoid-ring, and truncated-series extensions plus finite algebras.

An ExtElement is a finitely supported map from exponent vectors (N^d for the
monoid variants, N for series) to nonzero coefficients drawn from a ring or a
module over it.  Zero-divisor membership of an extension element is decided
by the content-annihilator criterion and, independently, by bounded
brute-force search; annihilating pairs yield constructive single-element
witnesses via a descending content-power chain.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .errors import BoundExceeded
from .modules import (FiniteModule, Verdict, content_of_element,
                      is_content_module)
from .rings import FiniteRing, least_killed, span

DEFAULT_SERIES_PRECISION = 8
DEFAULT_BRUTE_BUDGET = 300_000


@dataclass(frozen=True)
class ExtElement:
    """Finitely supported element of R[N^d], M[N^d], or a truncated series.

    `support` maps exponent tuples to nonzero coefficients of `base`, a ring
    or a module over one.  Series keep arity 1 and exponents below
    `precision`.
    """

    base: object = field(compare=False)  # FiniteRing | FiniteModule
    variant: str                        # "monoid" | "series"
    arity: int
    support: tuple                      # sorted ((exponent, coeff), ...)
    precision: Optional[int] = None

    def __post_init__(self):
        if self.variant not in ("monoid", "series"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.variant == "series":
            if self.arity != 1:
                raise ValueError("series elements are univariate")
            if self.precision is None or self.precision < 1:
                raise ValueError("series need a positive precision")

    @property
    def ring(self) -> FiniteRing:
        return self.base.scalars

    @property
    def is_zero(self) -> bool:
        return not self.support

    def coefficients(self) -> list:
        return [c for _, c in self.support]

    def __str__(self):
        if not self.support:
            body = "0"
        else:
            terms = []
            for exp, c in sorted(self.support, reverse=True):
                base = self.base
                cs = base.element_str(c)
                if any(ch in cs for ch in "+-") and not cs.startswith("("):
                    cs = f"({cs})"
                mono = monomial_str(exp)
                if mono == "1":
                    terms.append(cs)
                elif cs == "1":
                    terms.append(mono)
                else:
                    terms.append(f"{cs}*{mono}")
            body = " + ".join(terms)
        if self.variant == "series":
            return f"series({self.precision}; {body})"
        return body


def monomial_str(exp: tuple) -> str:
    if all(e == 0 for e in exp):
        return "1"
    parts = []
    for i, e in enumerate(exp):
        if e == 0:
            continue
        name = "X" if len(exp) == 1 else f"X{i + 1}"
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts)


def make_ext(base, support: dict | Iterable, variant: str = "monoid",
             arity: int = 1, precision: int | None = None) -> ExtElement:
    """Normalize a support mapping into an ExtElement, dropping zero coefficients."""
    if isinstance(support, dict):
        items = support.items()
    else:
        items = support
    zero = base.zero
    cleaned = {}
    for exp, coeff in items:
        exp = tuple(exp) if isinstance(exp, (tuple, list)) else (exp,)
        if len(exp) != arity:
            raise ValueError(f"exponent {exp} does not match arity {arity}")
        if any(e < 0 for e in exp):
            raise ValueError(f"negative exponent in {exp}")
        if variant == "series" and precision is not None and exp[0] >= precision:
            raise ValueError(f"exponent {exp[0]} at or past series precision {precision}")
        if coeff not in base:
            raise ValueError(f"coefficient {coeff!r} not in {getattr(base, 'descriptor', base)}")
        if coeff == zero:
            continue
        if exp in cleaned:
            raise ValueError(f"duplicate exponent {exp}")
        cleaned[exp] = coeff
    return ExtElement(base=base, variant=variant, arity=arity,
                      support=tuple(sorted(cleaned.items())), precision=precision)


def ring_poly(R: FiniteRing, support, arity: int = 1) -> ExtElement:
    return make_ext(R, support, "monoid", arity)


# ---------------------------------------------------------------------------
# the exact product


def _check_compatible(a: ExtElement, b: ExtElement):
    for name in ("variant", "arity", "precision"):
        if getattr(a, name) != getattr(b, name):
            raise ValueError(f"extension elements have mismatched {name}: "
                             f"{getattr(a, name)} and {getattr(b, name)}")
    if not a.ring.same_ring(b.ring):
        raise ValueError("extension elements over different rings")


def exact_product(f: ExtElement, g: ExtElement) -> dict:
    """The support of f*g for f over R and g over an R-module M, with no
    series truncation: both supports are finite, so the product is exact."""
    act, add, zero = g.base.act, g.base.add, g.base.zero
    out: dict = {}
    for ef, cf in f.support:
        for eg, cg in g.support:
            exp = tuple(x + y for x, y in zip(ef, eg))
            prod = act(cf, cg)
            s = add(out[exp], prod) if exp in out else prod
            if s == zero:
                out.pop(exp, None)
            else:
                out[exp] = s
    return out


# ---------------------------------------------------------------------------
# zero-divisor deciders


def is_zd_on_extension(f: ExtElement, M: FiniteModule) -> Verdict:
    """Is f a zero-divisor on M[G] (resp. M[[X]])?

    Decided by the content-annihilator criterion: f annihilates a nonzero
    element iff some nonzero m in M has c(f)*m = 0, and such a constant
    witness always exists at finite scale.  Witness: the least such m.
    """
    if not isinstance(f.base, FiniteRing):
        raise ValueError("f must have ring coefficients")
    R = f.ring
    if not R.same_ring(M.ring):
        raise ValueError("module is over a different ring")
    if M.is_zero:
        return Verdict(False, degenerate=True)
    m = least_killed(M, f.coefficients())
    if m is None:
        return Verdict(False)
    return Verdict(True, witness={"kind": "ext_zd", "element": m})


def brute_force_zd(f: ExtElement, M: FiniteModule, degree_bound: int,
                   budget: int = DEFAULT_BRUTE_BUDGET) -> Verdict:
    """Independent oracle: search for nonzero g over M with exponents <= d
    componentwise and f*g = 0 (exact product).  Exhaustive within budget."""
    if not isinstance(f.base, FiniteRing):
        raise ValueError("f must have ring coefficients")
    if not f.ring.same_ring(M.ring):
        raise ValueError("module is over a different ring")
    cells = sorted(itertools.product(range(degree_bound + 1), repeat=f.arity))
    n_candidates = M.size ** len(cells)
    if n_candidates > budget:
        raise BoundExceeded(
            f"brute force space |M|^{len(cells)} = {n_candidates} exceeds budget {budget}")
    f_items = list(f.support)
    zero_m = M.zero
    zero_r = f.ring.zero
    grid = set(cells)
    # product exponents reachable from the grid, in ascending order so the
    # constant coefficient rejects most candidates immediately
    targets = sorted({tuple(x + y for x, y in zip(ef, eg))
                      for ef, _ in f_items for eg in cells})
    pairs_for = {
        t: [(cf, tuple(x - y for x, y in zip(t, ef)))
            for ef, cf in f_items
            if all(x >= y for x, y in zip(t, ef))
            and tuple(x - y for x, y in zip(t, ef)) in grid]
        for t in targets
    }
    for combo in itertools.product(M.elements, repeat=len(cells)):
        g = dict(zip(cells, combo))
        if all(v == zero_m for v in combo):
            continue
        ok = True
        for t in targets:
            total = zero_m
            for cf, eg in pairs_for[t]:
                gv = g[eg]
                if gv != zero_m and cf != zero_r:
                    total = M.add(total, M.act(cf, gv))
            if total != zero_m:
                ok = False
                break
        if ok:
            witness = make_ext(M, {e: c for e, c in g.items() if c != zero_m},
                               f.variant, f.arity, f.precision)
            return Verdict(True, witness={"kind": "ext_zd_brute", "cofactor": witness})
    return Verdict(False)


def mccoy_witness(f: ExtElement, g: ExtElement):
    """Given f*g = 0 exactly with g nonzero, produce a nonzero constant m
    with f*m = 0.

    Follows the descending chain c(f)^k * c(g): take the least k >= 1 with
    c(f)^k c(g) = 0 (k = 1 covers c(f)c(g) = 0, including f = 0) and return
    the least nonzero element of c(f)^(k-1) c(g).  Finiteness guarantees the
    chain reaches zero for genuinely annihilating pairs; stabilizing at a
    nonzero value indicates an engine bug and raises.  The chain is
    `content_chain_witness`, the kernel lem-2.7 runs once per pair of
    coefficient sets; this wrapper adds the refusals and the exact product
    before it and re-verifies the postcondition f*m = 0, m != 0 after it.
    """
    if not isinstance(f.base, FiniteRing):
        raise ValueError("f must have ring coefficients")
    _check_compatible(f, g)
    if g.is_zero:
        raise ValueError("g must be nonzero")
    if exact_product(f, g):
        raise ValueError("f*g != 0: no annihilation witness exists")
    M = g.base
    zero = M.index(M.zero)
    f_rows = [M.rows[M.scalars.index(c)] for c in f.coefficients()]
    m = content_chain_witness(M, f_rows, [M.index(c) for c in g.coefficients()])
    if m == zero or any(row[m] != zero for row in f_rows):
        raise RuntimeError("extracted witness fails f*m = 0 re-check")
    return M.elements[m]


def content_chain_witness(M: FiniteModule, f_rows, g_cols) -> int:
    """The index of the least nonzero element of the last nonzero
    c(f)^(k-1) c(g), for f given by the action rows of its coefficients and
    g by the indices of its coefficients in M.

    Each link of the chain is a span along M.plus.  A chain that starts at
    zero or stabilizes at a nonzero submodule raises RuntimeError: for an
    annihilating pair with g nonzero, neither can happen.
    """
    zero = M.index(M.zero)
    chain = span(M.plus, zero, {row[c] for row in M.rows for c in g_cols})
    while True:
        if len(chain) == 1:
            raise RuntimeError("content chain started at zero for nonzero g")
        # r(c t) = c(r t): the chain is a submodule, so the seed is R-stable
        nxt = span(M.plus, zero, {row[t] for row in f_rows for t in chain})
        if len(nxt) == 1:
            return min(chain - {zero})
        if nxt == chain:
            raise RuntimeError(
                "content power chain stabilized nonzero; annihilating pair invariant violated")
        chain = nxt


# ---------------------------------------------------------------------------
# finite algebras


class FiniteAlgebra:
    """A finite R-algebra: ring B with a verified structure map R -> B.

    Its ideal-theoretic notions are read on B as an R-module: for an ideal I
    of R the extension IB is the submodule I*B, so the content of f in B is
    its module content."""

    def __init__(self, ring: FiniteRing, base: FiniteRing, embed: dict):
        self.ring = ring
        self.base = base
        self.embed = dict(embed)
        self.descriptor = f"Algebra({ring.descriptor}, {base.descriptor})"
        self._validate()
        self._module_view = None

    def _validate(self):
        B, R, phi = self.ring, self.base, self.embed
        if set(phi) != set(R.elements):
            raise ValueError(f"{self.descriptor}: structure map not total on {R.descriptor}")
        if phi[R.one] != B.one:
            raise ValueError(f"{self.descriptor}: structure map does not send 1 to 1")
        # on indices: image[a] is the index of phi(a) in B
        image = [B.index(phi[a]) for a in R.elements]
        for a, row_a in enumerate(R.rows):
            plus_a, plus_fa, row_fa = R.plus[a], B.plus[image[a]], B.rows[image[a]]
            for b, fb in enumerate(image):
                if image[plus_a[b]] != plus_fa[fb]:
                    raise ValueError(f"{self.descriptor}: structure map not additive at "
                                     f"{R.elements[a]},{R.elements[b]}")
                if image[row_a[b]] != row_fa[fb]:
                    raise ValueError(f"{self.descriptor}: structure map not multiplicative at "
                                     f"{R.elements[a]},{R.elements[b]}")

    def __repr__(self):
        return f"FiniteAlgebra({self.descriptor})"

    @property
    def is_trivial_extension(self) -> bool:
        return self.ring.same_ring(self.base)

    def as_module(self) -> FiniteModule:
        """B viewed as an R-module through the structure map."""
        if self._module_view is None:
            B, phi = self.ring, self.embed
            # r acts as phi(r) does: row r is B's row of phi(r)
            self._module_view = FiniteModule(
                ring=self.base, elements=B.elements, zero=B.zero,
                tables=(lambda N: [B.rows[B.index(phi[r])] for r in self.base.elements],
                        lambda N: B.plus, lambda N: B.minus),
                tag=f"AlgebraModule({self.descriptor})",
                element_str=B.element_str)
        return self._module_view


def self_algebra(R: FiniteRing) -> FiniteAlgebra:
    return FiniteAlgebra(R, R, {r: r for r in R.elements})


def diagonal_algebra(R: FiniteRing, product) -> FiniteAlgebra:
    """Prod(R,R) over R via the diagonal."""
    return FiniteAlgebra(product, R, {r: (r, r) for r in R.elements})


def extension_algebra(B: FiniteRing, R: FiniteRing) -> FiniteAlgebra:
    """PolyQuot(R, rel) over R = Zmod(n) via constant embedding."""
    if B.kind != "polyquot":
        raise ValueError("extension_algebra expects a polynomial quotient")
    d = len(B.zero)
    embed = {r: tuple([r] + [0] * (d - 1)) for r in R.elements}
    return FiniteAlgebra(B, R, embed)


def is_ohm_rush(algebra: FiniteAlgebra) -> Verdict:
    """f in c(f)B for all f in B, i.e. B is a content R-module; witness on
    failure: the offending f."""
    verdict = is_content_module(algebra.as_module())
    if verdict.holds:
        return verdict
    return Verdict(False, witness={"kind": "ohm_rush",
                                   "element": verdict.witness["element"]})


def is_mccoy_algebra(algebra: FiniteAlgebra) -> Verdict:
    """Ohm-Rush, and every annihilating pair f*g = 0 (g != 0) admits a nonzero
    r in R with c(f)*r = 0.  Witness on failure: the least offending (f, g)."""
    ohm_rush = is_ohm_rush(algebra)
    if not ohm_rush.holds:
        return Verdict(False, witness=ohm_rush.witness)
    B, R, BR = algebra.ring, algebra.base, algebra.as_module()
    zero = B.index(B.zero)
    for f, row in zip(B.elements, B.rows):
        # the least g != 0 with f*g = 0 stands for every such g: whether c(f)
        # kills some r != 0 does not depend on g
        g = next((g for g, fg in enumerate(row) if fg == zero and g != zero), None)
        if g is not None and least_killed(R, content_of_element(BR, f).generators) is None:
            return Verdict(False, witness={"kind": "mccoy", "pair": (f, B.elements[g])})
    return Verdict(True)
