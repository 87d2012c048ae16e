"""Ring- and algebra-side notions read through the module routines.

The content of f in an R-algebra B is its module content in B viewed as an
R-module, which rests on IB = I*B for every ideal I of R; and the ring
localization R_S is the coset quotient of R by the regular action, so the
class of s*c is the same whether R or R_S multiplies.
"""

import pytest

from zdbench import modules, statements
from zdbench.errors import BoundExceeded, PresentationUnavailable
from zdbench.localize import localize
from zdbench.modules import (free_module, ideal_action, is_faithfully_flat,
                             is_flat, presentation)
from zdbench.rings import Zmod, ideal_generated, least_killed, multiplicative_closure
from zdbench.universe import UniverseLimits, generate_universe


def test_ideal_action_on_algebra_is_ideal_extension(small_universe):
    pairs = 0
    for R, alg in small_universe.all_algebras():
        B = alg.ring
        for I in R.ideals():
            IB = ideal_generated(B, [alg.embed[a] for a in I.generators])
            assert ideal_action(I, alg.as_module()).elements == IB.elements, \
                (alg.descriptor, I.generators)
            pairs += 1
    assert pairs > 0


def test_ring_localization_classes_of_products(small_universe):
    for R in small_universe.rings:
        for a in R.elements:
            S = multiplicative_closure(R, [a])
            loc = localize(R, S)
            RS, to_class = loc.structure, loc.to_class
            for s in S.elements:
                for c in RS.elements:
                    assert to_class[R.mul(s, c)] == RS.mul(to_class[s], c), \
                        (R.descriptor, s, c)


def _skip_count(rep) -> int:
    return sum(note.startswith("skipped") for note in rep.notes)


def test_flatness_memo_respects_budget():
    """A verdict memoized at a large budget does not answer a smaller one."""
    # the limits of tests/test_golden.py with a presentation budget of 16
    limits = UniverseLimits(
        zmod_max=6, product_component_max=2, max_ring=6, max_module=36,
        max_algebra=16, max_sum_pairs=6, hom_budget=256, presentation_budget=16,
        brute_budget=300_000, degree_bound=2, series_precision=8,
        axiom_check_max=64)
    fresh = statements.run_statement("prop-2.2-2", generate_universe(limits))
    assert (len(fresh.applicable), _skip_count(fresh)) == (36, 5)
    U = generate_universe(limits)
    for R, M in U.pairs():
        try:
            is_flat(M)
        except BoundExceeded:
            pass
    warm = statements.run_statement("prop-2.2-2", U)
    assert (len(warm.applicable), _skip_count(warm)) == (36, 5)


def test_presentation_memos_respect_budget():
    R = Zmod(6)
    M = free_module(R, 2)
    assert len(presentation(M)[0]) == 2
    assert is_faithfully_flat(M).holds
    with pytest.raises(PresentationUnavailable):
        presentation(M, budget=16)
    with pytest.raises(BoundExceeded):
        is_faithfully_flat(M, budget=16)


def test_tensor_bound_skips_mccoy_members(monkeypatch):
    """Past the tensor bound on |M|^d, thm-2.13 notes the member as skipped."""
    limits = UniverseLimits(zmod_max=4, product_component_max=2, max_ring=4, max_module=16)
    full = statements.run_statement("thm-2.13", generate_universe(limits))
    assert (len(full.applicable), _skip_count(full)) == (55, 0)
    monkeypatch.setattr(modules, "DEFAULT_PRESENTATION_BUDGET", 16)
    bounded = statements.run_statement("thm-2.13", generate_universe(limits))
    assert (len(bounded.applicable), _skip_count(bounded)) == (50, 5)
    assert bounded.notes[0] == (
        "skipped Z2 :: Free(2) (x) Algebra(PolyQuot(Z2, x^3 + x + 1), Z2): "
        "tensor: |Free(2)|^3 = 64 exceeds budget 16")


def test_kills_nonzero_reads_a_ring_and_a_module_alike(small_universe):
    R = Zmod(6)
    assert statements.kills_nonzero([2], R)           # 2*3 = 0
    assert not statements.kills_nonzero([2, 3], R)
    C = modules.cyclic_module(R, ideal_generated(R, [2]))  # Z6/(2): 2 and 4 act as 0
    assert statements.kills_nonzero([2, 4], C)
    assert not statements.kills_nonzero([3], C)
    # the element scan against least_killed's index scan, on R and on each M
    for R, M in small_universe.pairs():
        for I in R.ideals():
            for X in (R, M):
                assert (statements.kills_nonzero(I.generators, X)
                        == (least_killed(X, I.generators) is not None)), (M.tag, I.generators)
