"""The table-driven module checks can fail, and Hom agrees with brute force.

On the pattern of tests/test_statement_faults.py: each fault case hands a
checker a module or a map with one wrong entry and asserts that the checker
rejects it, naming the first offending elements in sweep order.
"""

import itertools
import re

import pytest

from zdbench.modules import (FiniteModule, _extend_linear, _is_linear, _tables,
                             ann, cyclic_module, direct_sum, generating_set,
                             hom_module, regular_module, verify_module_axioms,
                             zero_divisors_module)
from zdbench.rings import Zmod, ideal_generated, poly_quotient


def _with(M, **ops):
    parts = {"add": M.add, "neg": M.neg, "act": M.act, **ops}
    return FiniteModule(M.ring, M.elements, parts["add"], parts["neg"], M.zero,
                        parts["act"], tag="planted")


def test_wrong_sum_at_one_pair_fails_axioms():
    # 2+3 and 3+2 both read 0 in Z6: commutativity holds, associativity breaks
    M = regular_module(Zmod(6))

    def add(a, b):
        return 0 if {a, b} == {2, 3} else M.add(a, b)

    with pytest.raises(ValueError, match="addition not associative at 1,1,3"):
        verify_module_axioms(_with(M, add=add))


def test_wrong_action_at_one_point_fails_distributivity():
    # 3*1 reads 1 in Z4: (1+2)*1 = 1 but 1*1 + 2*1 = 3
    M = regular_module(Zmod(4))

    def act(r, m):
        return 1 if (r, m) == (3, 1) else M.act(r, m)

    with pytest.raises(ValueError, match=re.escape("(r+s)m != rm+sm at 1,2,1")):
        verify_module_axioms(_with(M, act=act))


def test_one_wrong_entry_fails_is_linear():
    add, act = _tables(regular_module(Zmod(4)))
    identity = [0, 1, 2, 3]
    assert _is_linear(add, act, identity)
    for i, wrong in itertools.product(range(4), range(4)):
        if wrong != identity[i]:
            f = list(identity)
            f[i] = wrong
            assert not _is_linear(add, act, f), f"accepted {f}"


def test_additive_but_not_equivariant_fails_is_linear():
    # swapping the coefficients of a + bx is additive but x*f(1) != f(x*1)
    M = regular_module(poly_quotient(Zmod(2), (0, 0, 1)))
    add, act = _tables(M)
    swap = [M.index((b, a)) for a, b in M.elements]
    assert all(swap[add[a][b]] == add[swap[a]][swap[b]]
               for a in range(M.size) for b in range(M.size))
    assert not _is_linear(add, act, swap)


def test_conflicting_generator_image_fails_extend_linear():
    # Z2 + Z4 over Z4: 2*(1,0) = 0 but 2*(0,1) != 0, so (1,0) -> (0,1) conflicts
    R = Zmod(4)
    M = direct_sum(cyclic_module(R, ideal_generated(R, [2])), regular_module(R))
    gens = generating_set(M)
    assert gens == ((1, 0), (0, 1))
    add, act = _tables(M)
    zero = M.index(M.zero)
    g = [M.index(x) for x in gens]
    assert _extend_linear(add, act, zero, g, g) == list(range(M.size))
    assert _extend_linear(add, act, zero, g, [g[1], g[1]]) is None


def _brute_force_hom(M):
    """Every additive, R-equivariant function on M, by index tuple."""
    E, R = M.elements, M.ring
    maps = []
    for images in itertools.product(E, repeat=len(E)):
        f = dict(zip(E, images))
        if (all(f[M.add(a, b)] == M.add(f[a], f[b]) for a in E for b in E)
                and all(f[M.act(r, a)] == M.act(r, f[a]) for r in R.elements for a in E)):
            maps.append(images)
    maps.sort(key=lambda t: [M.index(v) for v in t])
    return maps


def test_hom_matches_brute_force(small_universe):
    checked = 0
    for _, M in small_universe.pairs():
        if M.is_zero or M.size > 6:
            continue
        assert list(hom_module(M).elements) == _brute_force_hom(M), M.descriptor()
        checked += 1
    assert checked >= 20


def test_end_of_cyclic_matches_cyclic(small_universe):
    """End_R(R/I) is R/I: same size, same Z(M), same annihilator."""
    checked = 0
    for R, M in small_universe.pairs():
        if not M.tag.startswith("Hom(Cyclic("):
            continue
        C, = [N for N in small_universe.modules[R.descriptor] if M.tag == f"Hom({N.tag})"]
        assert M.size == C.size, M.descriptor()
        assert zero_divisors_module(M) == zero_divisors_module(C), M.descriptor()
        assert ann(M).elements == ann(C).elements, M.descriptor()
        checked += 1
    assert checked == small_universe.counts["modules_hom"]
