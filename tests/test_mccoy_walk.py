"""The solved cofactor walk behind lem-2.7 against a full filter, and the
McCoy witness of each pair against a chain of closed submodules.

The reference enumerates every coefficient vector g with `itertools.product`
and keeps the nonzero ones with f*g = 0, convolving all coefficients; it
shares no code with the walk.  The walk runs on carrier indices; `_walk`
maps its input and output to elements, so both sides compare elements.
"""

import itertools
import random

from zdbench.extensions import (content_chain_witness, make_ext, mccoy_witness,
                               ring_poly)
from zdbench.modules import regular_module, submodule_generated
from zdbench.rings import Zmod, poly_quotient
from zdbench.statements import (_annihilating_cofactors, _solution_tables,
                                 mccoy_witness_sweep)

MAX_RING = 6
DEGREES = (0, 1, 2)
# (|R| bound, degrees): at degree 3 the solved walk runs three levels deep
WALKS = ((MAX_RING, DEGREES), (4, (3,)))


def _annihilators(R, cf):
    d = len(cf) - 1
    found = []
    for cg in itertools.product(R.elements, repeat=d + 1):
        if all(c == R.zero for c in cg):
            continue
        product = [R.zero] * (2 * d + 1)
        for i, a in enumerate(cf):
            for j, b in enumerate(cg):
                product[i + j] = R.add(product[i + j], R.mul(a, b))
        if all(c == R.zero for c in product):
            found.append(cg)
    return found


def _walk(R, cf):
    """The walk's cofactors of f, with f and the cofactors as elements."""
    found = _annihilating_cofactors(R, tuple(map(R.index, cf)), _solution_tables(R))
    return [tuple(map(R.elements.__getitem__, cg)) for cg in found]


def _small_rings(U):
    rings = [R for R in U.rings if R.size <= MAX_RING]
    assert len(rings) >= 5
    return rings


def test_walk_yields_the_filtered_cofactors_in_order(small_universe):
    for max_ring, degrees in WALKS:
        rings = [R for R in small_universe.rings if R.size <= max_ring]
        assert len(rings) >= 5
        for R in rings:
            for degree in degrees:
                for cf in itertools.product(R.elements, repeat=degree + 1):
                    assert _walk(R, cf) == _annihilators(R, cf), \
                        (R.descriptor, cf)


def test_walk_solves_with_the_negated_rest():
    """On the small universe's rings, solving f_0 x = rest_j in place of
    -rest_j changes no answer (over Z/n, f*g = 0 forces every f_i g_j = 0).
    Z9[x]/(x^2) has no such rule: (3 + xX)(3 + 2xX) = 0 with 3 * 2x != 0.
    The nine f = 3 + cX with c in xR are compared."""
    R = poly_quotient(Zmod(9), (0, 0, 1))
    three, x = (3, 0), (0, 1)
    found = 0
    for c in sorted({R.mul(x, r) for r in R.elements}, key=R.index):
        expected = _annihilators(R, (three, c))
        assert _walk(R, (three, c)) == expected, c
        found += len(expected)
    assert found > 100


def test_last_cell_solve_where_cross_terms_are_nonzero():
    """The walk solves g_d from coefficients d..2d at once.  Over Z/n every
    f_i g_j of an annihilating pair is 0, so a wrong equation index there
    shows on no universe ring.  Over Z4[x]/(x^2), (2 + xX)(2 + 3xX) = 0
    with 2 * 3x != 0: the walk is compared, order included, with the filter
    at degree 2 on f = 2 + xX and a seeded sample of f with coefficients in
    the ideal (2, x)."""
    R = poly_quotient(Zmod(4), (0, 0, 1))
    two, x, zero = (2, 0), (0, 1), R.zero
    ideal = sorted({R.add(R.mul(two, r), R.mul(x, s)) for r in R.elements
                    for s in R.elements}, key=R.index)
    assert len(ideal) == 8
    sample = random.Random(2).sample(list(itertools.product(ideal, repeat=3)), 12)
    pairs = crossed = 0
    for cf in [(two, x, zero), *sample]:
        expected = _annihilators(R, cf)
        assert _walk(R, cf) == expected, cf
        pairs += len(expected)
        crossed += sum(any(R.mul(a, b) != zero for a in cf for b in cg) for cg in expected)
    assert (two, R.mul((3, 0), x), zero) in _walk(R, (two, x, zero))
    assert pairs > 100
    assert crossed > 0


def _scanned(R, cf):
    """The nonzero g with f*g = 0 in `itertools.product` order, grown one
    coefficient at a time: g_j is kept when a scan of all of R finds it
    makes coefficient j of f*g zero; coefficients d+1..2d are tested on the
    whole g.  Nothing is solved, so it shares no equation with the walk."""
    d = len(cf) - 1

    def coefficient(g, k):
        total = R.zero
        for i, a in enumerate(cf):
            if 0 <= k - i < len(g):
                total = R.add(total, R.mul(a, g[k - i]))
        return total

    prefixes = [()]
    for j in range(d + 1):
        prefixes = [g + (b,) for g in prefixes for b in R.elements
                    if coefficient(g + (b,), j) == R.zero]
    return [g for g in prefixes if any(b != R.zero for b in g)
            and all(coefficient(g, k) == R.zero for k in range(d + 1, 2 * d + 1))]


def test_last_cell_signs_where_minus_differs():
    """Flipping the sign of need_(d+i), i >= 1, changes the walk's answer on
    no degree-2 f over Z4[x]/(x^2), but on thousands over Z9[x]/(x^2): there
    the walk is compared with the scan at degree 2 on a seeded sample of f
    with coefficients in the ideal (3, x)."""
    R = poly_quotient(Zmod(9), (0, 0, 1))
    three, x = (3, 0), (0, 1)
    ideal = sorted({R.add(R.mul(three, r), R.mul(x, s)) for r in R.elements
                    for s in R.elements}, key=R.index)
    pairs = 0
    for cf in random.Random(0).sample(list(itertools.product(ideal, repeat=3)), 4):
        expected = _scanned(R, cf)
        assert _walk(R, cf) == expected, cf
        pairs += len(expected)
    assert pairs > 100


def test_sweep_counts_match_the_filter(small_universe):
    rings = _small_rings(small_universe)
    for degree in DEGREES:
        sweep = mccoy_witness_sweep(small_universe, max_ring=MAX_RING, degree=degree)
        per_ring = {R.descriptor: sum(len(_annihilators(R, cf)) for cf in
                                      itertools.product(R.elements, repeat=degree + 1))
                    for R in rings}
        assert sweep["per_ring"] == per_ring, degree
        assert sweep["pairs_checked"] == sum(per_ring.values())
        assert not sweep["failures"], sweep["failures"][:3]


def _chain_witness(M, cf, cg):
    """The least nonzero element of the last nonzero c(f)^k c(g), each step
    closed under R with `submodule_generated`."""
    zero = frozenset({M.zero})
    chain = submodule_generated(M, cg).elements
    while True:
        nxt = submodule_generated(M, {M.act(c, t) for c in cf for t in chain}).elements
        if nxt == zero:
            return M.sorted_elements(chain - zero)[0]
        assert nxt != chain, "chain stabilized nonzero"
        chain = nxt


def test_witness_matches_closed_chain(small_universe):
    pairs = 0
    for R in _small_rings(small_universe):
        Reg = small_universe.regular(R)
        for degree in DEGREES:
            for cf in itertools.product(R.elements, repeat=degree + 1):
                f = ring_poly(R, {(i,): c for i, c in enumerate(cf) if c != R.zero})
                for cg in _annihilators(R, cf):
                    g = make_ext(Reg, {(i,): c for i, c in enumerate(cg) if c != R.zero})
                    expected = _chain_witness(Reg, f.coefficients(), g.coefficients())
                    assert mccoy_witness(f, g) == expected, (R.descriptor, cf, cg)
                    pairs += 1
    assert pairs > 1000


def test_kernel_matches_closed_chain_past_the_first_step():
    """lem-2.7's universe pairs all stop the chain at k = 1 (every f_i g_j
    is 0).  Over Z9[x]/(x^2) the nine f = 3 + cX with c in xR have
    cofactors with c(f)c(g) != 0, so the content chain steps to k >= 2;
    there the kernel's witness must be the closed chain's."""
    R = poly_quotient(Zmod(9), (0, 0, 1))
    Reg = regular_module(R)
    three, x = (3, 0), (0, 1)
    pairs = deep = 0
    for c in sorted({R.mul(x, r) for r in R.elements}, key=R.index):
        cf = (three, c)
        f_rows = [R.rows[R.index(a)] for a in cf]
        for cg in _annihilators(R, cf):
            m = content_chain_witness(Reg, f_rows, [R.index(b) for b in cg])
            assert R.elements[m] == _chain_witness(Reg, cf, cg), (c, cg)
            pairs += 1
            deep += any(R.mul(a, b) != R.zero for a in cf for b in cg)
    assert pairs > 100
    assert deep > 100
