"""Brute-force cross-check of the shared subgroup helpers.

Every subset of every small ring and module is tested for closure directly,
so the ideal and submodule lattices, the `span` closure, the multiplicatively
closed subsets and the local decomposition are compared with an enumeration
that shares no code with them.
"""

import itertools
import math

import pytest

from zdbench.modules import all_submodules, ideal_action, submodule_generated
from zdbench.rings import (Zmod, all_mult_closed_subsets, multiplicative_closure, poly_quotient,
                           span)
from zdbench.universe import UniverseLimits, generate_universe

MAX_SIZE = 12
LIMITS = UniverseLimits(zmod_max=MAX_SIZE, product_component_max=4, max_ring=MAX_SIZE,
                        max_module=MAX_SIZE, max_algebra=MAX_SIZE)


@pytest.fixture(scope="module")
def tiny_universe():
    U = generate_universe(LIMITS)
    assert all(M.size <= MAX_SIZE for _, M in U.pairs())
    return U


def _closed_masks(elements, op, scalars=(), act=None):
    """Bitmasks of every subset containing elements[0] (the identity) that is
    closed under op and, when `act` is given, under act(r, -) for r in scalars."""
    n = len(elements)
    index = {e: i for i, e in enumerate(elements)}
    op_table = [[1 << index[op(a, b)] for b in elements] for a in elements]
    act_table = [[1 << index[act(r, a)] for a in elements] for r in scalars] if act else []
    found = []
    for mask in range(1, 1 << n, 2):
        members = [i for i in range(n) if mask >> i & 1]
        if all(op_table[i][j] & mask for i in members for j in members) and \
                all(row[i] & mask for row in act_table for i in members):
            found.append(mask)
    return found


def _as_set(elements, mask) -> frozenset:
    return frozenset(e for i, e in enumerate(elements) if mask >> i & 1)


def _least_closed(closed, seed_mask, n):
    """The intersection of the closed masks that contain seed_mask."""
    least = (1 << n) - 1
    for mask in closed:
        if mask & seed_mask == seed_mask:
            least &= mask
    return least


def _seeds(elements, closed):
    """Every 1-, 2- and 3-element subset, and every closed set plus one
    element, the shape in which greedy generator searches call `span`."""
    seeds = [seed for k in (1, 2, 3) for seed in itertools.combinations(elements, k)]
    return seeds + [tuple(_as_set(elements, mask) | {e}) for mask in closed for e in elements]


def _check_span(elements, op, identity):
    """span(seed) is the least op-closed set holding the identity and seed,
    with `span` reading the index table of op."""
    assert elements[0] == identity
    closed = _closed_masks(elements, op)
    index = {e: i for i, e in enumerate(elements)}
    table = [[index[op(h, s)] for h in elements] for s in elements]
    for seed in _seeds(elements, closed):
        seed_mask = sum(1 << index[e] for e in seed)
        least = _least_closed(closed, seed_mask, len(elements))
        got = span(table, 0, [index[e] for e in seed])
        assert got == _as_set(range(len(elements)), least), seed


def test_ideal_lattices_match_brute_force(tiny_universe):
    for R in tiny_universe.rings:
        masks = _closed_masks(R.elements, R.add, R.elements, R.mul)
        expected = {_as_set(R.elements, m) for m in masks}
        lattice = [I.elements for I in R.ideals()]
        assert len(lattice) == len(set(lattice)), R.descriptor
        assert set(lattice) == expected, R.descriptor


def _least_ideal(R, elems) -> frozenset:
    """The least ideal holding `elems`, by adding sums and multiples until
    nothing changes."""
    closed = {R.zero, *elems}
    while True:
        grown = closed | {R.add(a, b) for a in closed for b in closed} \
            | {R.mul(r, a) for r in R.elements for a in closed}
        if grown == closed:
            return frozenset(closed)
        closed = grown


def test_small_generators_follow_their_rule(tiny_universe):
    """small_generators is the first nonzero single generator in carrier
    order when the ideal is principal, else the greedy list: each member, in
    carrier order, joins when it lies outside the least ideal holding the
    earlier ones.  Z4[x]/(x^3) has ideals, such as (2, x^2), on which a
    greedy search that closed only under + would pick more generators."""
    rings = list(tiny_universe.rings) + [poly_quotient(Zmod(4), (0, 0, 0, 1))]
    for R in rings:
        for I in R.ideals():
            members = [e for e in R.elements if e in I.elements]
            principal = [e for e in members if e != R.zero and _least_ideal(R, [e]) == I.elements]
            gens: list = []
            for e in members:
                if e not in _least_ideal(R, gens):
                    gens.append(e)
            expected = (principal[0],) if principal else tuple(gens) or (R.zero,)
            assert I.small_generators() == expected, (R.descriptor, I)


def test_submodule_lattices_match_brute_force(tiny_universe):
    for R, M in tiny_universe.pairs():
        masks = _closed_masks(M.elements, M.add, R.elements, M.act)
        expected = {_as_set(M.elements, m) for m in masks}
        lattice = [N.elements for N in all_submodules(M)]
        assert len(lattice) == len(set(lattice)), M.descriptor()
        assert set(lattice) == expected, M.descriptor()


def test_span_is_least_closed_superset(tiny_universe):
    for R in tiny_universe.rings:
        _check_span(R.elements, R.add, R.zero)
        # multiplicative closure: put 1 first so it plays the identity's part
        units_first = [R.one] + [e for e in R.elements if e != R.one]
        _check_span(units_first, R.mul, R.one)
    for R, M in tiny_universe.pairs():
        _check_span(M.elements, M.add, M.zero)


def test_mult_closed_subsets_match_brute_force(tiny_universe):
    """all_mult_closed_subsets(R, R) is every subset holding 1 that is closed
    under multiplication, ordered by size, then by element indices; and
    multiplicative_closure(seed) is the least of them holding the seed."""
    for R in tiny_universe.rings:
        units_first = [R.one] + [e for e in R.elements if e != R.one]
        closed = _closed_masks(units_first, R.mul)
        expected = sorted((_as_set(units_first, m) for m in closed),
                          key=lambda S: (len(S), sorted(map(R.index, S))))
        assert [S.elements for S in all_mult_closed_subsets(R, R.elements)] == expected, \
            R.descriptor
        index = {e: i for i, e in enumerate(units_first)}
        for seed in _seeds(units_first, closed):
            least = _least_closed(closed, sum(1 << index[e] for e in seed), len(units_first))
            assert multiplicative_closure(R, seed).elements == _as_set(units_first, least), \
                (R.descriptor, seed)


def test_local_factors_match_maximal_ideals(tiny_universe):
    """One local factor eR per maximal ideal p, their sizes multiplying to
    |R|, and each factor's maximal ideal m_e is e*p for the p with e not in p."""
    for R in tiny_universe.rings:
        factors = R.local_factors()
        maximal = R.maximal_ideals()
        assert len(factors) == len(maximal), R.descriptor
        assert math.prod(len(factor) for _, factor, _ in factors) == R.size, R.descriptor
        for e, factor, m_e in factors:
            idem = R.elements[e]
            (p,) = [p for p in maximal if idem not in p.elements]
            expected = {R.mul(idem, x) for x in p.elements}
            assert {R.elements[i] for i in m_e} == expected, (R.descriptor, idem)


def test_ideal_action_is_generated_submodule(small_universe):
    """I*M, built as the additive span of the R-stable seed {a m}, is the
    submodule that seed generates."""
    for R, M in small_universe.pairs():
        for I in R.ideals():
            seed = {M.act(a, m) for a in I.generators for m in M.elements}
            assert ideal_action(I, M).elements == submodule_generated(M, seed).elements, \
                (M.descriptor(), I)
