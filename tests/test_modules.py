import pytest

from zdbench.errors import BoundExceeded
from zdbench.extensions import FiniteAlgebra, extension_algebra, self_algebra
from zdbench.localize import localize
from zdbench.modules import (all_submodules, ann, content_of_element,
                             content_surjective, cyclic_module, direct_sum,
                             free_module, generating_set, has_property_A,
                             hom_module, ideal_action, is_auslander,
                             is_content_module, is_faithfully_flat, is_flat,
                             is_torsion_free, presentation, quotient_module,
                             regular_module, submodule_generated,
                             tensor_with_algebra, verify_module_axioms,
                             zero_divisors_module, zero_module)
from zdbench.modules import DEFAULT_PRESENTATION_BUDGET, ideal_tensor_kernel
from zdbench.rings import (Zmod, ideal_generated, multiplicative_closure,
                           poly_quotient, product_ring)

from harness import negative


@pytest.fixture
def prod22():
    return product_ring(Zmod(2), Zmod(2))


@pytest.fixture
def killed_factor(prod22):
    # R/I for I = (0) + k inside k + k
    return cyclic_module(prod22, ideal_generated(prod22, [(0, 1)]))


def test_cyclic_module_killed_factor(prod22, killed_factor):
    M = killed_factor
    assert M.size == 2
    m = [e for e in M.elements if e != M.zero][0]
    assert M.act((1, 0), m) == m
    assert M.act((0, 1), m) == M.zero


def test_regular_and_sum_sizes():
    R = Zmod(6)
    assert regular_module(R).size == 6
    s = direct_sum(cyclic_module(R, ideal_generated(R, [3])), regular_module(R))
    assert s.size == 18  # |R/(3)| = 3 times |R| = 6


def test_free_module_and_zero():
    R = Zmod(4)
    F = free_module(R, 2)
    assert F.size == 16
    assert F.act(3, (1, 2)) == (3, 2)
    Z = zero_module(R)
    assert Z.is_zero and Z.size == 1
    assert free_module(R, 0).is_zero


def test_hom_module_sizes():
    R = Zmod(6)
    C = cyclic_module(R, ideal_generated(R, [3]))
    assert hom_module(C).size == 3  # End(R/I) = R/I for cyclic modules
    assert hom_module(zero_module(R)).size == 1
    assert hom_module(free_module(Zmod(4), 1)).size == 4  # scalar maps


def test_hom_module_budget():
    with pytest.raises(BoundExceeded):
        hom_module(free_module(Zmod(6), 2), budget=100)


def test_zero_divisors_module_examples(prod22, killed_factor):
    assert zero_divisors_module(killed_factor) == frozenset({(0, 0), (0, 1)})
    R = Zmod(6)
    assert zero_divisors_module(regular_module(R)) == R.zero_divisors()
    field_mod = cyclic_module(Zmod(5), ideal_generated(Zmod(5), []))
    assert zero_divisors_module(field_mod) == frozenset({0})
    assert zero_divisors_module(zero_module(R)) == frozenset()


def test_ann_examples():
    R = Zmod(6)
    C = cyclic_module(R, ideal_generated(R, [3]))
    assert ann(C).elements == frozenset({0, 3})
    assert ann(C, C.zero).is_whole
    assert ann(regular_module(R)).is_zero


def test_ideal_action_examples():
    R = Zmod(4)
    M = regular_module(R)
    assert ideal_action(ideal_generated(R, [2]), M).elements == frozenset({0, 2})
    assert ideal_action(ideal_generated(R, []), M).elements == frozenset({0})
    assert ideal_action(ideal_generated(R, [1]), M).elements == frozenset(R.elements)


def test_content_examples():
    R4 = Zmod(4)
    M4 = regular_module(R4)
    assert content_of_element(M4, 2).elements == frozenset({0, 2})
    assert content_of_element(M4, 0).elements == frozenset({0})
    R6 = Zmod(6)
    M6 = regular_module(R6)
    assert content_of_element(M6, 3).elements == frozenset({0, 3})


def test_content_module_and_surjectivity():
    for R in (Zmod(4), Zmod(6), product_ring(Zmod(2), Zmod(2))):
        M = regular_module(R)
        assert is_content_module(M).holds
        assert content_surjective(M)  # c(x) = (x) on the regular module


def test_content_identities_on_flat_content_modules():
    # on the regular module: c(r*x) = r*c(x) and c(x) = 0 iff x = 0
    for R in (Zmod(4), Zmod(6), product_ring(Zmod(2), Zmod(3))):
        M = regular_module(R)
        for x in M.elements:
            cx = content_of_element(M, x)
            assert cx.is_zero == (x == M.zero)
            for r in R.elements:
                scaled = ideal_generated(R, [R.mul(r, g) for g in cx.generators])
                assert content_of_element(M, M.act(r, x)) == scaled


def test_property_a_examples(killed_factor):
    assert has_property_A(regular_module(Zmod(4))).holds
    assert has_property_A(killed_factor).holds
    assert has_property_A(zero_module(Zmod(4))).degenerate


def test_auslander_examples(prod22, killed_factor):
    v = is_auslander(killed_factor)
    assert not v.holds
    assert v.witness["element"] == (1, 0)
    assert is_auslander(regular_module(Zmod(6))).holds
    assert is_auslander(free_module(Zmod(5), 2)).holds
    assert is_auslander(zero_module(Zmod(4))).degenerate


def test_torsion_free_examples(killed_factor):
    assert is_torsion_free(killed_factor).holds
    assert is_torsion_free(regular_module(Zmod(6))).holds


def test_flat_examples(prod22):
    assert is_flat(free_module(Zmod(6), 2)).holds
    assert is_faithfully_flat(free_module(Zmod(6), 2)).holds
    R4 = Zmod(4)
    M = cyclic_module(R4, ideal_generated(R4, [2]))  # Z/2 over Z/4
    v = is_flat(M)
    assert not v.holds
    assert v.witness["ideal"] == (2,)
    assert v.witness["tensor_size"] == 2  # |I (x) M| = 2 while I*M = 0
    assert is_faithfully_flat(regular_module(prod22)).holds


def test_two_generator_ideal_tensor_kernel():
    # I = (2, x) over Z4[x]/(x^2) on M = R/(x): I (x) M has 4 elements while
    # I*M = (2) has 2, and the relation-free ((0,0),(1,0)) maps to 2*0 + x*1 = 0
    R = poly_quotient(Zmod(4), (0, 0, 1))
    M = cyclic_module(R, ideal_generated(R, [(0, 1)]))
    I = ideal_generated(R, [(2, 0), (0, 1)])
    assert ideal_tensor_kernel(I, M, budget=30000) == (False, {
        "kind": "flat", "ideal": ((2, 0), (0, 1)), "kernel_element": ((0, 0), (1, 0)),
        "tensor_size": 4})


def test_flat_agreement_between_routes():
    # is_flat raises internally if the two deciders ever disagree
    for R in (Zmod(8), Zmod(12), product_ring(Zmod(2), Zmod(4)),
              poly_quotient(Zmod(2), (0, 0, 1))):
        for I in R.ideals():
            if I.is_whole:
                continue
            is_flat(cyclic_module(R, I))
        is_flat(regular_module(R))


def test_flat_quotient_of_semisimple_is_flat(prod22, killed_factor):
    assert is_flat(killed_factor).holds
    assert not is_faithfully_flat(killed_factor).holds


def test_submodule_zero_divisor_containment():
    for R in (Zmod(8), Zmod(6), product_ring(Zmod(2), Zmod(2))):
        M = regular_module(R)
        zm = zero_divisors_module(M)
        for N in all_submodules(M):
            if N.is_zero:
                continue
            Nmod = N.as_module()
            assert zero_divisors_module(Nmod) <= zm
            if is_auslander(Nmod).holds:
                assert is_auslander(M).holds


def test_presentation_and_quotient_free():
    R = Zmod(6)
    C = cyclic_module(R, ideal_generated(R, [2]))
    gens, relations = presentation(C)
    assert len(gens) == 1
    assert {r[0] for r in relations} == {0, 2, 4}
    F1 = free_module(R, 1)
    rebuilt = quotient_module(F1, submodule_generated(F1, relations).elements, "rebuilt")
    assert rebuilt.size == C.size
    F = free_module(R, 2)
    gens2, rel2 = presentation(F)
    assert len(gens2) == 2 and rel2 == frozenset({(0, 0)})


def test_generating_set_regular_is_one():
    R = Zmod(12)
    assert generating_set(regular_module(R)) == (1,)


def test_tensor_with_algebra_examples(prod22, killed_factor):
    # base case: tensoring with the ring itself changes nothing
    T = tensor_with_algebra(killed_factor, self_algebra(prod22))
    assert T.size == killed_factor.size == 2
    # free base change: Free(2) (x) B = B^2
    R2 = Zmod(2)
    B = extension_algebra(poly_quotient(R2, (1, 1, 1)), R2)
    T2 = tensor_with_algebra(free_module(R2, 2), B)
    assert T2.size == 16
    # (Z/4-module Z/2) (x) Z4[x]/(x^2) = B/2B of size 4
    R4 = Zmod(4)
    B4 = extension_algebra(poly_quotient(R4, (0, 0, 1)), R4)
    M = cyclic_module(R4, ideal_generated(R4, [2]))
    assert tensor_with_algebra(M, B4).size == 4


def _tensor_by_presentation(M, alg):
    """M (x) B as B^k modulo the relations of a presentation of M, mapped
    coefficientwise into B: an independent construction of the same module.
    None past the presentation budget."""
    try:
        gens, relations = presentation(M)
    except BoundExceeded:
        return None
    B, k = alg.ring, len(gens)
    if B.size ** k > DEFAULT_PRESENTATION_BUDGET:
        return None
    F = free_module(B, k)
    mapped = {tuple(alg.embed[r] for r in rel) for rel in relations}
    return quotient_module(F, submodule_generated(F, mapped).elements, "oracle")


def test_tensor_matches_presentation_oracle(small_universe):
    compared = 0
    for R, alg in small_universe.all_algebras():
        for M in small_universe.modules[R.descriptor]:
            oracle = _tensor_by_presentation(M, alg)
            if oracle is None:
                continue
            T = tensor_with_algebra(M, alg)
            where = (M.tag, alg.descriptor)
            assert T.size == oracle.size, where
            assert zero_divisors_module(T) == zero_divisors_module(oracle), where
            for verdict in (is_auslander, is_torsion_free, is_flat, is_faithfully_flat):
                assert _holds(verdict, T) == _holds(verdict, oracle), (verdict.__name__,) + where
            compared += 1
    assert compared > 200


def _holds(verdict, M):
    """The verdict on M, or "bound" when its budget gate stops it."""
    try:
        return verdict(M).holds
    except BoundExceeded:
        return "bound"


def test_tensor_basis_and_non_free_algebra(prod22):
    # Prod(Z2,Z2) is free of rank 1 over itself, though it needs two generators
    T = tensor_with_algebra(regular_module(prod22), self_algebra(prod22))
    assert len(T.zero) == 1 and T.size == 4
    # Z6 -> Z6_S = Z2 for S = {1,3}: |Z6|^d is never 2
    Z6 = Zmod(6)
    loc = localize(Z6, multiplicative_closure(Z6, [3]))
    with pytest.raises(ValueError, match="not free"):
        tensor_with_algebra(regular_module(Z6),
                            FiniteAlgebra(loc.structure, loc.source, loc.to_class))


def test_submodule_generated_closure():
    R = Zmod(6)
    M = free_module(R, 2)
    N = submodule_generated(M, [(2, 0)])
    assert N.elements == frozenset({(0, 0), (2, 0), (4, 0)})


def test_module_axiom_checker_catches_bad_action():
    R = Zmod(4)
    M = regular_module(R)
    from zdbench.modules import FiniteModule
    bad = FiniteModule(R, M.elements, M.add, lambda a: negative(M, a), M.zero,
                       act=lambda r, m: m, tag="bad")  # not an action: 0*m != 0
    with pytest.raises(ValueError):
        verify_module_axioms(bad)
