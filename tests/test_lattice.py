"""Brute-force cross-check of the shared subgroup helpers.

Every subset of every small ring and module is tested for closure directly,
so the ideal and submodule lattices and the `span` closure are compared with
an enumeration that shares no code with them.
"""

import itertools

import pytest

from zdbench.modules import all_submodules, ideal_action, submodule_generated
from zdbench.rings import span
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


def _check_span(elements, op, identity):
    """span(seed) is the least op-closed set holding the identity and seed.

    Seeds: every 1-, 2- and 3-element subset, and every closed set plus one
    element, the shape in which greedy generator searches call `span`."""
    assert elements[0] == identity
    closed = _closed_masks(elements, op)
    index = {e: i for i, e in enumerate(elements)}
    seeds = [seed for k in (1, 2, 3) for seed in itertools.combinations(elements, k)]
    seeds += [tuple(_as_set(elements, mask) | {e}) for mask in closed for e in elements]
    for seed in seeds:
        seed_mask = sum(1 << index[e] for e in seed)
        least = (1 << len(elements)) - 1
        for mask in closed:
            if mask & seed_mask == seed_mask:
                least &= mask
        assert span(op, identity, seed) == _as_set(elements, least), seed


def test_ideal_lattices_match_brute_force(tiny_universe):
    for R in tiny_universe.rings:
        masks = _closed_masks(R.elements, R.add, R.elements, R.mul)
        expected = {_as_set(R.elements, m) for m in masks}
        lattice = [I.elements for I in R.ideals()]
        assert len(lattice) == len(set(lattice)), R.descriptor
        assert set(lattice) == expected, R.descriptor


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


def test_ideal_action_is_generated_submodule(small_universe):
    """I*M, built as the additive span of the R-stable seed {a m}, is the
    submodule that seed generates."""
    for R, M in small_universe.pairs():
        for I in R.ideals():
            seed = {M.act(a, m) for a in I.generators for m in M.elements}
            assert ideal_action(I, M).elements == submodule_generated(M, seed).elements, \
                (M.descriptor(), I)
