import re

import pytest

from zdbench.errors import BoundExceeded
from zdbench.rings import (FiniteRing, MultiplicativeSet, Zmod,
                           all_mult_closed_subsets, annihilator_of,
                           ideal_generated, multiplicative_closure,
                           poly_quotient, product_ring, verify_ring_axioms)

from harness import negative


def test_zmod_basics():
    R = Zmod(6)
    assert R.size == 6
    assert R.add(4, 5) == 3
    assert R.mul(4, 5) == 2
    assert negative(R, 2) == 4
    assert R.zero == 0 and R.one == 1


def test_zmod_rejects_small_modulus():
    for n in (-1, 0, 1):
        with pytest.raises(ValueError):
            Zmod(n)


def test_product_ring_componentwise():
    P = product_ring(Zmod(2), Zmod(2))
    assert P.size == 4
    assert P.add((1, 0), (1, 1)) == (0, 1)
    assert P.mul((1, 0), (0, 1)) == (0, 0)
    # carrier order is pinned: first component varies fastest
    assert P.elements == ((0, 0), (1, 0), (0, 1), (1, 1))


def test_poly_quotient_reduction_table():
    # Z2[x]/(x^2): carrier 0, 1, x, 1+x; verified against hand reduction
    R = poly_quotient(Zmod(2), (0, 0, 1))
    assert R.elements == ((0, 0), (1, 0), (0, 1), (1, 1))
    x = (0, 1)
    assert R.mul(x, x) == (0, 0)
    assert R.mul((1, 1), (1, 1)) == (1, 0)  # (1+x)^2 = 1 + x^2 = 1
    assert R.element_str((1, 1)) == "1+x"


def test_poly_quotient_galois_field():
    # Z2[x]/(x^2+x+1) = F4: every nonzero element is a unit
    F4 = poly_quotient(Zmod(2), (1, 1, 1))
    assert len(F4.units()) == 3
    assert F4.is_field()


def test_poly_quotient_rejects_bad_relations():
    with pytest.raises(ValueError):
        poly_quotient(Zmod(4), (0, 2))      # leading coefficient 2
    with pytest.raises(ValueError):
        poly_quotient(Zmod(2), (1,))        # degree 0
    with pytest.raises(ValueError):
        poly_quotient(product_ring(Zmod(2), Zmod(2)), (0, 0, 1))


def test_ideal_generated_examples():
    assert ideal_generated(Zmod(6), [2]).elements == frozenset({0, 2, 4})
    assert ideal_generated(Zmod(4), []).elements == frozenset({0})
    P = product_ring(Zmod(2), Zmod(2))
    assert ideal_generated(P, [(0, 1)]).elements == frozenset({(0, 0), (0, 1)})


def test_ideal_generated_rejects_foreign_elements():
    with pytest.raises(ValueError):
        ideal_generated(Zmod(4), [7])


def test_ideal_generated_idempotent():
    R = Zmod(12)
    I = ideal_generated(R, [8, 6])
    again = ideal_generated(R, sorted(I.elements))
    assert again.elements == I.elements
    assert again == I


def test_annihilator_examples():
    R4 = Zmod(4)
    assert annihilator_of(R4, [2]).elements == frozenset({0, 2})
    assert annihilator_of(R4, []).is_whole
    R6 = Zmod(6)
    assert annihilator_of(R6, [3]).elements == frozenset({0, 2, 4})
    R12 = Zmod(12)
    assert annihilator_of(R12, [2]).elements == frozenset({0, 6})


def test_all_ideals_counts():
    assert len(Zmod(4).ideals()) == 3
    assert len(Zmod(6).ideals()) == 4
    assert len(Zmod(5).ideals()) == 2  # any field
    assert len(poly_quotient(Zmod(2), (1, 1, 1)).ideals()) == 2


def test_lattice_closure_and_annihilator_law():
    # sums, products and intersections of ideals are in the enumerated
    # lattice, and (I + J) kills exactly what both I and J kill
    for R in (Zmod(8), Zmod(12), product_ring(Zmod(2), Zmod(4))):
        ideals = R.ideals()
        lattice = {I.elements for I in ideals}
        for I in ideals:
            for J in ideals:
                both = I.generators + J.generators
                product = ideal_generated(R, [R.mul(a, b) for a in I.generators
                                              for b in J.generators])
                assert ideal_generated(R, both).elements in lattice
                assert product.elements in lattice
                assert I.elements & J.elements in lattice
                assert product.elements <= I.elements & J.elements
                lhs = annihilator_of(R, both).elements
                rhs = annihilator_of(R, I.generators).elements & annihilator_of(
                    R, J.generators).elements
                assert lhs == rhs


def test_lattice_bound_exceeded():
    # the size check comes before any table of the ring is built
    R = Zmod(513)
    with pytest.raises(BoundExceeded, match="exceeds bound 512"):
        R.ideals()
    assert not {"rows", "plus"} & vars(R).keys()


def test_zero_divisors_examples():
    assert Zmod(6).zero_divisors() == frozenset({0, 2, 3, 4})
    P = product_ring(Zmod(2), Zmod(2))
    assert P.zero_divisors() == frozenset({(0, 0), (1, 0), (0, 1)})
    assert Zmod(7).zero_divisors() == frozenset({0})


def test_nonunits_are_zero_divisors():
    # finite commutative rings: Z(R) = R \ units(R)
    for R in (Zmod(6), Zmod(8), Zmod(9), Zmod(12),
              product_ring(Zmod(2), Zmod(4)), poly_quotient(Zmod(4), (0, 0, 1))):
        assert R.zero_divisors() == frozenset(R.elements) - R.units()


def test_ring_predicates():
    p5 = Zmod(5)
    assert p5.is_field() and p5.is_domain() and p5.is_local()
    p4 = Zmod(4)
    assert not p4.is_domain() and p4.is_local()
    assert p4.maximal_ideals()[0].elements == frozenset({0, 2})
    pp = product_ring(Zmod(2), Zmod(2))
    assert not pp.is_local() and len(pp.maximal_ideals()) == 2


def test_ring_axioms_pass_on_sample():
    for R in (Zmod(9), product_ring(Zmod(3), Zmod(4)),
              poly_quotient(Zmod(3), (0, 0, 0, 1))):
        verify_ring_axioms(R)


def test_ring_axiom_bound():
    with pytest.raises(BoundExceeded):
        verify_ring_axioms(Zmod(12), bound=4)


def test_every_wrong_product_fails_ring_axioms():
    rings = (Zmod(4), Zmod(6), product_ring(Zmod(2), Zmod(2)),
             poly_quotient(Zmod(2), (1, 1, 1)))
    faults = 0
    for R in rings:
        for a in R.elements:
            for b in R.elements:
                for w in R.elements:
                    if w == R.mul(a, b):
                        continue
                    faults += 1
                    bad = FiniteRing(R.kind, R.elements, R.add,
                                     lambda x, y, a=a, b=b, w=w:
                                     w if (x, y) == (a, b) else R.mul(x, y),
                                     lambda a: negative(R, a), R.zero, R.one, R.descriptor)
                    with pytest.raises(ValueError, match=re.escape(R.descriptor)):
                        verify_ring_axioms(bad)
    assert faults == 324


def test_ring_axiom_errors_name_the_regular_module():
    # 2*2 reads 1 in Z4: commutative still, but 2*(1+1) = 1 != 2*1 + 2*1
    R = Zmod(4)
    bad = FiniteRing(R.kind, R.elements, R.add,
                     lambda a, b: 1 if (a, b) == (2, 2) else R.mul(a, b),
                     lambda a: negative(R, a), R.zero, R.one, R.descriptor)
    with pytest.raises(ValueError, match=r"^Reg over Z4: r\(a\+b\) != ra\+rb at 2,1,1$"):
        verify_ring_axioms(bad)


def test_noncommutative_ring_fails_ring_axioms():
    # upper triangular 2x2 matrices over Z2, as (a, b, d): a left module over
    # itself, so only the commutativity sweep can reject it
    def mul(u, v):
        return (u[0] * v[0] % 2, (u[0] * v[1] + u[1] * v[2]) % 2, u[2] * v[2] % 2)

    elements = [(a, b, d) for d in range(2) for b in range(2) for a in range(2)]
    T = FiniteRing("planted", elements, lambda u, v: tuple((x + y) % 2 for x, y in zip(u, v)),
                   mul, lambda u: u, (0, 0, 0), (1, 0, 1), "T2(Z2)")
    with pytest.raises(ValueError, match=r"^T2\(Z2\): multiplication not commutative"):
        verify_ring_axioms(T)


def test_multiplicative_closure_inserts_one():
    R = Zmod(6)
    S = multiplicative_closure(R, [5])
    assert S.elements == frozenset({1, 5})
    T = multiplicative_closure(R, [2])
    assert T.elements == frozenset({1, 2, 4})  # 2*2=4, 2*4=2


def test_multiplicative_set_checks_its_input():
    R = Zmod(6)
    with pytest.raises(ValueError, match="must contain 1"):
        MultiplicativeSet(R, frozenset({5}))
    with pytest.raises(ValueError, match="not closed under multiplication at 2\\*2"):
        MultiplicativeSet(R, frozenset({1, 2}))


def test_all_mult_closed_subsets_of_units():
    R = Zmod(6)
    subsets = all_mult_closed_subsets(R, R.units())
    assert [sorted(S.elements) for S in subsets] == [[1], [1, 5]]
    # a field of prime order: closed subsets of units = subgroups of a cyclic group
    R11 = Zmod(11)
    groups = all_mult_closed_subsets(R11, R11.units())
    assert sorted(len(S.elements) for S in groups) == [1, 2, 5, 10]


def test_duplicate_encodings_rejected():
    from zdbench.rings import FiniteRing
    with pytest.raises(ValueError):
        FiniteRing("zmod", [0, 0], lambda a, b: 0, lambda a, b: 0,
                   lambda a: 0, 0, 1, "bad")


def test_trivial_ring_rejected_without_flag():
    from zdbench.rings import FiniteRing
    with pytest.raises(ValueError):
        FiniteRing("zmod", [0], lambda a, b: 0, lambda a, b: 0,
                   lambda a: 0, 0, 0, "zero-ring")
