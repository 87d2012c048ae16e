"""Finite commutative rings, the carrier and submodules they share with
modules (an ideal is a submodule of R itself), and zero-divisor scans.

Rings carry an explicit finite carrier of canonically encoded elements:
integers mod n, pairs for binary products, and reduced coefficient vectors
for monic polynomial quotients.  Equality of encodings is equality in the
ring, so elements can be used as dict keys and set members everywhere.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

from .errors import BoundExceeded

# |R| cap for the ideal-lattice fixpoint; the universe stays far below it.
DEFAULT_LATTICE_BOUND = 512


class Table(dict):
    """Index rows composed one at a time: table[x] is row(x), built at first
    use and kept, so a consumer that reads a few rows pays for those alone."""

    def __init__(self, row):
        self._row = row

    def __missing__(self, x):
        row = self[x] = self._row(x)
        return row


class Carrier:
    """The explicit finite carrier that rings and modules share: canonically
    encoded elements in a fixed order, their index map, and index tables
    built at first use: rows[r][x] = r*x for r in `scalars` (itself for a
    ring), plus[x][y] = x + y (a `Table`) and minus[x] = -x.  A
    construction's `tables` compose them from its parts' tables; a base
    carrier, Z/n or the zero module, fills them from its formulas `action`,
    `add` and `neg` through `index`, so a value outside the carrier raises
    ValueError.  Element-level act and add read the tables.  `name` is what
    errors call it."""

    def __init__(self, elements, add, neg, zero, element_str, name, scalars,
                 action, tables):
        self.elements = tuple(elements)
        self.zero = zero
        self._element_str = element_str or repr
        self._name = name
        self._index = {e: i for i, e in enumerate(self.elements)}
        if len(self._index) != len(self.elements):
            raise ValueError(f"carrier of {name} has duplicate encodings")
        self.scalars = self if scalars is None else scalars
        self._tables = tables or (
            lambda X: [[X.index(action(r, x)) for x in X.elements] for r in X.scalars.elements],
            lambda X: Table(lambda x: [X.index(add(X.elements[x], y)) for y in X.elements]),
            lambda X: [X.index(neg(x)) for x in X.elements])

    @cached_property
    def rows(self) -> list:
        return self._tables[0](self)

    @cached_property
    def plus(self) -> Table:
        return self._tables[1](self)

    @cached_property
    def minus(self) -> list:
        return self._tables[2](self)

    def act(self, r, x):
        return self.elements[self.rows[self.scalars._index[r]][self._index[x]]]

    def add(self, a, b):
        return self.elements[self.plus[self._index[a]][self._index[b]]]

    def __len__(self):
        return len(self.elements)

    size = property(__len__)

    def index(self, x):
        try:
            return self._index[x]
        except KeyError:
            raise ValueError(f"{x!r} is not an element of {self._name}") from None

    def __contains__(self, x):
        return x in self._index

    def element_str(self, x):
        return self._element_str(x)

    def tuple_str(self, xs) -> str:
        """(x1,x2,...): how a tuple of elements, or a generator list, displays."""
        return "(" + ",".join(map(self.element_str, xs)) + ")"

    def sorted_elements(self, subset: Iterable) -> list:
        return sorted(subset, key=self.index)


class FiniteRing(Carrier):
    """A finite commutative ring with explicit carrier and arithmetic."""

    def __init__(self, kind, elements, add, mul, neg, zero, one, descriptor,
                 element_str=None, allow_trivial=False, tables=None):
        super().__init__(elements, add, neg, zero, element_str, descriptor, None, mul, tables)
        self.kind = kind
        self.one = one
        self.descriptor = descriptor
        if not allow_trivial and zero == one:
            raise ValueError(f"{descriptor}: zero identity (0 = 1) not allowed")
        # what element literals resolve through: (A, B) for A x B, (Z/n, the class
        # of x) for Z/n[x]/(f), (source ring, element -> class map) for a localization
        self.parts = ()
        # lazily computed, write-once caches
        self._units = None
        self._zero_divisors = None
        self._ideals = None
        self._local_factors = None

    mul = Carrier.act

    def __repr__(self):
        return f"FiniteRing({self.descriptor})"

    def same_ring(self, other: "FiniteRing") -> bool:
        return self is other or self.descriptor == other.descriptor

    def units(self) -> frozenset:
        if self._units is None:
            one = self.index(self.one)
            self._units = frozenset(a for a, row in zip(self.elements, self.rows) if one in row)
        return self._units

    def zero_divisors(self) -> frozenset:
        """{r : r*s = 0 for some s != 0}; contains 0 whenever the ring is nonzero."""
        if self._zero_divisors is None:
            self._zero_divisors = zero_divisor_scan(self)
        return self._zero_divisors

    def regular_elements(self) -> frozenset:
        return frozenset(self.elements) - self.zero_divisors()

    def ideals(self) -> tuple["Submodule", ...]:
        """Every ideal exactly once: the submodule lattice of the regular module.

        Raises BoundExceeded past DEFAULT_LATTICE_BOUND elements so callers
        shrink the universe rather than wait on an infeasible enumeration.
        """
        if self.size > DEFAULT_LATTICE_BOUND:
            raise BoundExceeded(f"ideal lattice of {self.descriptor} (size {self.size}) "
                                f"exceeds bound {DEFAULT_LATTICE_BOUND}")
        if self._ideals is None:
            self._ideals = tuple(subgroup_lattice(
                self, self.plus, cyclic_subgroups(self),
                lambda gens, elements: Submodule(self, gens, elements)))
        return self._ideals

    def maximal_ideals(self) -> tuple["Submodule", ...]:
        proper = [I for I in self.ideals() if not I.is_whole]
        return tuple(I for I in proper if not any(I.elements < J.elements for J in proper))

    def is_field(self) -> bool:
        # a field has 0 != 1, so the zero ring is none
        return self.zero != self.one and self.units() >= set(self.elements) - {self.zero}

    def is_domain(self) -> bool:
        return self.zero_divisors() == {self.zero}

    def is_local(self) -> bool:
        return len(self.maximal_ideals()) == 1

    def local_factors(self) -> tuple[tuple, ...]:
        """R = prod eR over its primitive idempotents e, each factor local: one
        (e, eR, m_e) per e in carrier order, all on indices, with m_e the
        nonunits of eR, its maximal ideal.  As s = es for s in eR, st = s(et):
        s is a unit of eR iff e lies in its row."""
        if self._local_factors is None:
            rows, plus, zero = self.rows, self.plus, self.index(self.zero)
            idem = [i for i in range(self.size) if rows[i][i] == i and i != zero]
            prims = [e for e in idem if not any(g != e and rows[g][e] == g for g in idem)]
            total = zero
            for e in prims:
                if any(f != e and rows[e][f] != zero for f in prims):
                    raise RuntimeError(
                        f"{self.descriptor}: primitive idempotents not orthogonal")
                total = plus[total][e]
            if total != self.index(self.one):
                raise RuntimeError(f"{self.descriptor}: idempotent decomposition incomplete")
            factors = []
            for e in prims:
                factor = frozenset(rows[e])
                units = {s for s in factor if e in rows[s]}
                maximal = factor - units
                if any(plus[a][b] in units for a in maximal for b in maximal):
                    raise RuntimeError(
                        f"{self.descriptor}: factor at {self.elements[e]} is not local")
                factors.append((e, factor, maximal))
            self._local_factors = tuple(factors)
        return self._local_factors


# ---------------------------------------------------------------------------
# constructions


def Zmod(n: int) -> FiniteRing:
    if n < 2:
        raise ValueError(f"Z{n}: modulus must be >= 2")
    return FiniteRing(
        kind="zmod",
        elements=range(n),
        add=lambda a, b: (a + b) % n,
        mul=lambda a, b: (a * b) % n,
        neg=lambda a: (-a) % n,
        zero=0,
        one=1,
        descriptor=f"Z{n}",
        element_str=str,
    )


def tuple_carrier(parts, scalar_rows) -> dict:
    """The carrier of a sum of `parts`, as keyword arguments of its
    constructor: the tuples (a, b, ...) with the first coordinate varying
    fastest, so (a, b, ...) has index a + |A| (b + |B| (...)); their zero;
    their display (x,y,...); and their tables, digit-wise: the row composed
    from one row of each part has entries row_A[a] + |A| (row_B[b] + ...).
    x + y comes from the rows of x's digits, and each scalar's row from the
    part rows that `scalar_rows()` yields for it, scalar by scalar."""
    sizes = [X.size for X in parts]

    def radix(rows):
        out = rows[-1]
        for row, n in zip(rows[-2::-1], sizes[-2::-1]):
            out = [x + n * y for y in out for x in row]
        return out

    def plus_row(x):
        rows = []
        for X, n in zip(parts, sizes):
            rows.append(X.plus[x % n])
            x //= n
        return radix(rows)

    return dict(
        elements=[c[::-1] for c in itertools.product(*(X.elements for X in reversed(parts)))],
        zero=tuple(X.zero for X in parts),
        element_str=lambda u: "(" + ",".join(X.element_str(x) for X, x in zip(parts, u)) + ")",
        tables=(lambda S: [radix(rows) for rows in scalar_rows()],
                lambda S: Table(plus_row),
                lambda S: radix([X.minus for X in parts])))


def product_ring(A: FiniteRing, B: FiniteRing) -> FiniteRing:
    # Prod(Z2,Z2) lists (0,0), (1,0), (0,1), (1,1)
    R = FiniteRing(
        kind="product", add=None, mul=None, neg=None, one=(A.one, B.one),
        descriptor=f"Prod({A.descriptor},{B.descriptor})",
        **tuple_carrier((A, B), lambda: ((row_a, row_b) for row_b in B.rows
                                         for row_a in A.rows)))
    R.parts = (A, B)
    return R


def poly_quotient(base: FiniteRing, relation: tuple[int, ...]) -> FiniteRing:
    """Quotient base[x]/(f) for a monic relation f, with base = Z/n.

    `relation` lists the coefficients of f from the constant term up; the
    leading coefficient must be 1.  Elements are reduced coefficient vectors
    of length deg(f), and the tables are composed from base's.
    """
    if base.kind != "zmod":
        raise ValueError("PolyQuot base must be a Zmod ring")
    n = base.size
    rel = tuple(c % n for c in relation)
    if len(rel) < 2:
        raise ValueError("relation must have degree >= 1")
    if rel[-1] != 1:
        raise ValueError(f"relation {poly_str(relation)} is not monic")
    d = len(rel) - 1
    # x^d = -(rel[0] + rel[1] x + ... + rel[d-1] x^(d-1))
    top = tuple((-rel[i]) % n for i in range(d))
    # the coefficient vectors of Z/n^d, so Z2[x]/(x^2) lists 0, 1, x, 1+x;
    # its constants act digit-wise
    carrier = tuple_carrier([base] * d, lambda: ((row,) * d for row in base.rows))
    constant_rows, *additive = carrier["tables"]

    def horner_rows(R):
        # Horner: u = u_0 + x u' has index u_0 + n index(u'), so u v = u_0 v +
        # u' (x v), where x v shifts v up and adds v_(d-1) x^d = v_(d-1) top
        rows, plus, t, high = constant_rows(R), R.plus, R.index(top), n ** (d - 1)
        times_x = [plus[n * (v % high)][rows[v // high][t]] for v in range(R.size)]
        for u in range(n, R.size):
            low, rest = rows[u % n], rows[u // n]
            rows.append([plus[a][rest[b]] for a, b in zip(low, times_x)])
        return rows

    R = FiniteRing(
        kind="polyquot", add=None, mul=None, neg=None, one=(1,) + (0,) * (d - 1),
        descriptor=f"PolyQuot({base.descriptor}, {poly_str(rel)})",
        **dict(carrier, element_str=poly_display, tables=(horner_rows, *additive)))
    R.parts = (base, top if d == 1 else (0, 1) + (0,) * (d - 2))  # x = -f(0) if d = 1
    return R


def poly_terms(coeffs) -> list[str]:
    """Display terms of the nonzero coefficients, constant term first."""
    terms = []
    for k, c in enumerate(coeffs):
        if not c:
            continue
        if k == 0:
            terms.append(str(c))
        else:
            mono = "x" if k == 1 else f"x^{k}"
            terms.append(mono if c == 1 else f"{c}*{mono}")
    return terms


def poly_display(coeffs) -> str:
    """Display of a polynomial-quotient element, constant term first."""
    return "+".join(poly_terms(coeffs)) or "0"


def poly_str(coeffs: tuple[int, ...]) -> str:
    """Canonical display of a relation polynomial, highest degree first."""
    return " + ".join(reversed(poly_terms(coeffs))) or "0"


# ---------------------------------------------------------------------------
# subgroups: the closure, lattice walk and coset quotient behind ideals,
# submodules, multiplicative sets, quotients and localizations


def span(op, identity, seed: Iterable, gens: list | None = None) -> frozenset:
    """The smallest set holding `identity` and `seed` that `op` maps into itself.

    `op` is a commutative and associative index table op[s][h] = h*s, such
    as a carrier's `plus`, or a ring's `rows`.  The closure H, from
    {identity}, grows by coset extension: each seed element s outside H
    adds the layers H*s, H*s^2, ... up to the first that adds nothing; as
    (h1 s^i)(h2 s^j) = h1 h2 s^(i+j), that union is closed.  Only a layer's
    new elements are multiplied by s (an old one, h s^i = h' s^j with j < i,
    gives a product already in H), so each extension costs O(|H|).  With
    op = + the result is a subgroup; each extension at least doubles it, so
    at most log2 |H| rows are read.  The extending seed elements, which
    generate H, are appended to `gens` when given.
    """
    return frozenset(_extend(op, {identity}, seed, gens))


def _extend(op, closed: set, seed: Iterable, gens: list | None = None) -> set:
    """Grow `closed`, already closed under `op`, in place to the closure of
    closed and `seed`, by `span`'s coset extension."""
    for s in seed:
        if s in closed:
            continue
        if gens is not None:
            gens.append(s)
        step = op[s].__getitem__
        layer = closed
        while layer:
            layer = set(map(step, layer)) - closed
            closed |= layer
    return closed


def subgroup_lattice(S, op, atoms, make, max_count: int | None = None) -> list:
    """Every join of `atoms` under `op` in S, once: with op = S.plus and
    `cyclic_subgroups(S)`, the subgroups of S that its scalars keep.

    `op` is a commutative, associative index table, as for `span`; `atoms`
    yields (i, A), A generated by i, closed under `op` and holding its
    identity.  Members are joined pairwise by a*b = {x*y}, closed and
    holding a and b, until no join is new; a*b is built coset by coset,
    each y in b not yet in it adding a's translate along op[y] (y = x0*y0
    in it has y*a within y0*a).  Members are index sets until
    make(generators, elements) builds them; sorted by size, then by
    element indices.  `max_count` caps the members.
    """
    seen = {}  # member's indices -> its generators' indices
    for i, atom in atoms:
        seen.setdefault(atom, (i,))
    frontier = list(seen.items())
    while frontier:
        fresh = []
        current = list(seen.items())
        for a, gens_a in frontier:
            for b, gens_b in current:
                if a <= b or b <= a:
                    continue
                joined = set(a)
                for y in b:
                    if y not in joined:
                        joined.update(map(op[y].__getitem__, a))
                joined = frozenset(joined)
                if joined not in seen:
                    seen[joined] = gens = tuple(sorted(gens_a + gens_b))
                    fresh.append((joined, gens))
                    if max_count is not None and len(seen) > max_count:
                        raise BoundExceeded(f"submodule lattice of {S.tag} exceeds {max_count}")
        frontier = fresh
    E = S.elements
    return [make(tuple(map(E.__getitem__, gens)), frozenset(map(E.__getitem__, members)))
            for members, gens in sorted(seen.items(), key=lambda m: (len(m[0]), sorted(m[0])))]


def cyclic_subgroups(S):
    """(m, {r*m}) for each m in S, on indices: the columns of S.rows."""
    return ((m, frozenset(row[m] for row in S.rows)) for m in range(S.size))


def coset_quotient(S, subgroup: Iterable) -> tuple[list, list]:
    """(cls, reps) of S modulo a subgroup, on indices: x's class is
    reps[cls[x]], its least index.  Each coset is walked from it along the
    S.plus rows of the subgroup's generators (`span`), the only rows read."""
    gens: list = []
    span(S.plus, S.index(S.zero), subgroup, gens)
    steps = [S.plus[g] for g in gens]
    cls, reps = [None] * S.size, []
    for x in range(S.size):
        if cls[x] is None:
            c = cls[x] = len(reps)
            reps.append(x)
            stack = [x]
            while stack:
                y = stack.pop()
                for row in steps:
                    z = row[y]
                    if cls[z] is None:
                        cls[z] = c
                        stack.append(z)
    return cls, reps


def represented_tables(X: Carrier, cls, reps: list):
    """The tables of a carrier on representatives `reps` of X's classes
    (indices; x's class is reps[cls[x]]): each entry is the class of X's.
    Its scalars are elements of X's (R_S's are elements of R), acting as in
    X.  With `cls` on a subset that X keeps (a submodule) they restrict X."""
    def rows(Y):
        scalar = X.scalars._index
        return [[cls[row[c]] for c in reps]
                for row in (X.rows[scalar[s]] for s in Y.scalars.elements)]

    return (rows,
            lambda Y: Table(lambda c: [cls[y] for y in map(X.plus[reps[c]].__getitem__, reps)]),
            lambda Y: [cls[X.minus[c]] for c in reps])


# ---------------------------------------------------------------------------
# scans of a ring acting on a carrier, on its rows: R on itself by
# multiplication, or on a module; each serves the ring notion and the module
# notion alike


def zero_divisor_scan(X: Carrier) -> frozenset:
    """{r in X.scalars : r*x = 0 for some nonzero x in X}: Z(R) for X = R,
    Z(M) for a module X = M (empty if M = 0).  Row r holds 0 in some column
    other than 0's own."""
    zero = X.index(X.zero)
    return frozenset(r for r, row in zip(X.scalars.elements, X.rows)
                     if row.count(zero) > (row[zero] == zero))


def annihilator_of(X: Carrier, targets) -> "Submodule":
    """The ideal {r in X.scalars : r*t = 0 for every t in targets}."""
    zero, cols = X.index(X.zero), [X.index(t) for t in targets]
    elems = [r for r, row in zip(X.scalars.elements, X.rows) if all(row[t] == zero for t in cols)]
    return Submodule(X.scalars, tuple(elems), frozenset(elems))


def least_killed(X: Carrier, scalars):
    """The least nonzero x in X, in carrier order, with r*x = 0 for every r in
    `scalars`, or None: whether a set of scalars kills a nonzero element, the
    question behind property (A), the extension criterion and McCoy
    algebras.  The scan stops at the first such x."""
    zero = X.index(X.zero)
    rows = [X.rows[X.scalars.index(r)] for r in scalars]
    for x in range(X.size):
        if x != zero and all(row[x] == zero for row in rows):
            return X.elements[x]
    return None


# ---------------------------------------------------------------------------
# submodules of a carrier X; the ideals are those of R itself


@dataclass(frozen=True)
class Submodule:
    """A submodule of `module`, a ring or a module, carried with a generator
    list and its full element set; it compares by its element set alone."""

    module: Carrier = field(compare=False)
    generators: tuple = field(compare=False)
    elements: frozenset = field(compare=True)

    @property
    def ring(self) -> FiniteRing:
        return self.module.scalars

    @property
    def is_zero(self) -> bool:
        return self.elements == frozenset({self.module.zero})

    @property
    def is_whole(self) -> bool:
        return len(self.elements) == self.module.size

    def small_generators(self) -> tuple:
        """A short generating list: one generator when cyclic, else
        `greedy_generators` on the members in carrier order."""
        X = self.module
        members = sorted(map(X.index, self.elements))
        for e in members:
            # Re, the column of e, lies in the submodule
            if X.elements[e] != X.zero and len({row[e] for row in X.rows}) == len(self.elements):
                return (X.elements[e],)
        return tuple(map(X.elements.__getitem__, greedy_generators(X, members))) or (X.zero,)

    def as_module(self):
        from .modules import module_on_representatives  # modules imports this module
        X = self.module
        tag = getattr(X, "tag", "Reg")  # an ideal is a submodule of R as Reg
        sub = sorted(map(X.index, self.elements))
        return module_on_representatives(X, X.scalars, {x: i for i, x in enumerate(sub)}, sub,
                                         f"Sub[{len(sub)}] of {tag}")


def submodule_generated(X: Carrier, gens: Iterable) -> Submodule:
    """The least submodule of X holding `gens` (none gives the zero one), the
    ideal they generate for X = R: the additive span of every r*g, which is
    stable since s(rg) = (sr)g."""
    cols = sorted({X.index(g) for g in gens})  # raises on an element outside X
    closed = span(X.plus, X.index(X.zero), {row[g] for row in X.rows for g in cols})
    E = X.elements
    return Submodule(X, tuple(map(E.__getitem__, cols)), frozenset(map(E.__getitem__, closed)))


ideal_generated = submodule_generated


def greedy_generators(X: Carrier, members: Iterable) -> list:
    """The indices among `members`, in their order, that lie outside the
    submodule of X generated by the earlier ones, which grows in place by the
    additive span of each new generator's column {r*e} of X.rows."""
    gens, closed = [], {X.index(X.zero)}
    for e in members:
        if e not in closed:
            gens.append(e)
            _extend(X.plus, closed, {row[e] for row in X.rows})
    return gens


# ---------------------------------------------------------------------------
# multiplicative sets


@dataclass(frozen=True)
class MultiplicativeSet:
    ring: FiniteRing = field(compare=False)
    elements: frozenset = field(compare=True)

    def __post_init__(self):
        R, S = self.ring, self.elements
        if R.one not in S:
            raise ValueError("multiplicative set must contain 1")
        members = {R.index(e): e for e in S}
        for (a, e), (b, f) in itertools.product(members.items(), repeat=2):
            if R.rows[a][b] not in members:
                raise ValueError(f"set not closed under multiplication at {e!r}*{f!r}")

    def display(self) -> str:
        """{s1,s2,...}: the members' displays in carrier order."""
        R = self.ring
        return "{" + ",".join(map(R.element_str, R.sorted_elements(self.elements))) + "}"

    def __repr__(self):
        return f"MultSet({self.ring.descriptor}: {self.display()})"


def multiplicative_closure(R: FiniteRing, seed: Iterable) -> MultiplicativeSet:
    """Close `seed` (plus 1) under multiplication, along R.rows."""
    closed = span(R.rows, R.index(R.one), {R.index(s) for s in seed})
    return MultiplicativeSet(R, frozenset(map(R.elements.__getitem__, closed)))


def all_mult_closed_subsets(R: FiniteRing, within: Iterable) -> list[MultiplicativeSet]:
    """Every multiplicatively closed subset of `within` that contains 1, by
    size, then by element indices.

    `within` must be closed under multiplication itself (true for the
    regular-on-M candidate sets this is used on): they are the joins along
    R.rows of its cyclic submonoids {1, e, e^2, ...}, by `subgroup_lattice`.
    """
    one = R.index(R.one)
    cyclic = ((e, span(R.rows, one, (e,)))
              for e in sorted({one, *map(R.index, within)}))
    return subgroup_lattice(R, R.rows, cyclic,
                            lambda gens, elements: MultiplicativeSet(R, elements))


# ---------------------------------------------------------------------------
# axiom verification


def verify_ring_axioms(R: FiniteRing, bound: int = 64):
    """Full commutative-ring axiom check; raises ValueError on violation.

    The module laws of the regular module R -- (R,+) an abelian group,
    1*m = m, (rs)m = r(sm) and both distributive laws -- are the ring laws
    short of commutativity, which makes 1 a two-sided unit.  So R is a
    commutative ring iff `verify_module_axioms(regular_module(R))` passes
    (full, by induction on sums of additive generators; its errors name
    "Reg over R") and one full sweep finds multiplication commutative.
    """
    from . import modules  # modules imports this module at load time
    if R.size > bound:
        raise BoundExceeded(f"axiom check bound {bound} exceeded for {R.descriptor}")
    modules.verify_module_axioms(modules.regular_module(R))
    els, rows = R.elements, R.rows
    for i, a in enumerate(els):
        for j in range(i + 1, len(els)):
            if rows[i][j] != rows[j][i]:
                raise ValueError(
                    f"{R.descriptor}: multiplication not commutative at {a},{els[j]}")
