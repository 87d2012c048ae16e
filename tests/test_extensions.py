import itertools

import pytest

from zdbench.errors import BoundExceeded
from zdbench.extensions import (FiniteAlgebra, brute_force_zd,
                                content_ideal, diagonal_algebra, ext_add,
                                ext_arith, ext_mul,
                                ext_product_is_exactly_zero,
                                extension_algebra, is_mccoy_algebra,
                                is_ohm_rush, is_zd_on_extension, make_ext,
                                mccoy_witness, module_poly, module_series,
                                ring_poly, ring_series, self_algebra)
from zdbench.modules import regular_module, zero_divisors_module
from zdbench.rings import Zmod, ideal_generated, poly_quotient, product_ring


def test_ext_mul_collapses_to_zero():
    R = Zmod(4)
    f = ring_poly(R, {(1,): 2, (0,): 2})
    two = ring_poly(R, {(0,): 2})
    assert ext_mul(f, two).is_zero  # 4X + 4 = 0 mod 4


def test_ext_mul_identity_and_add():
    R = Zmod(6)
    f = ring_poly(R, {(2,): 3, (0,): 2})
    one = ring_poly(R, {(0,): 1})
    assert ext_mul(f, one) == f
    assert ext_add(f, ring_poly(R, {(0,): 4})).support == (((2,), 3),)


def test_bivariate_frobenius():
    R = Zmod(2)
    f = ring_poly(R, {(1, 0): 1, (0, 1): 1}, arity=2)
    sq = ext_mul(f, f)
    assert dict(sq.support) == {(2, 0): 1, (0, 2): 1}  # cross term 2*X1*X2 = 0


def test_variant_mismatch_rejected():
    R = Zmod(4)
    f = ring_poly(R, {(0,): 1})
    s = ring_series(R, {(0,): 1}, precision=8)
    # each message names the field that differs and both values
    with pytest.raises(ValueError, match="^extension elements have mismatched "
                       "variant: monoid and series$"):
        ext_mul(f, s)
    with pytest.raises(ValueError, match="^extension elements have mismatched "
                       "arity: 2 and 1$"):
        ext_mul(ring_poly(R, {(1, 1): 1}, arity=2), f)
    with pytest.raises(ValueError, match="^extension elements have mismatched "
                       "precision: 8 and 4$"):
        ext_mul(s, ring_series(R, {(0,): 1}, precision=4))


def test_scalar_action_requires_mixed_kinds():
    R = Zmod(4)
    f = ring_poly(R, {(0,): 1})
    with pytest.raises(ValueError):
        ext_arith(f, f, "scalar-action")
    g = module_poly(regular_module(R), {(0,): 2})
    assert ext_arith(f, g, "scalar-action").base_kind == "module"


def test_series_truncation_flag():
    R = Zmod(4)
    a = ring_series(R, {(5,): 1}, precision=8)
    b = ring_series(R, {(4,): 1}, precision=8)
    prod = ext_mul(a, b)  # X^9 discarded
    assert prod.is_zero and prod.truncated
    ok = ext_mul(ring_series(R, {(1,): 1}, precision=8),
                 ring_series(R, {(2,): 1}, precision=8))
    assert not ok.truncated and dict(ok.support) == {(3,): 1}


def test_series_exponent_past_precision_rejected():
    with pytest.raises(ValueError):
        ring_series(Zmod(4), {(9,): 1}, precision=8)


def test_content_ideal_examples():
    R4 = Zmod(4)
    assert content_ideal(ring_poly(R4, {(1,): 2, (0,): 2})).elements == frozenset({0, 2})
    assert content_ideal(ring_poly(R4, {})).elements == frozenset({0})
    R6 = Zmod(6)
    assert content_ideal(ring_poly(R6, {(2,): 3, (0,): 2})).is_whole_ring
    M = regular_module(R4)
    sub = content_ideal(module_poly(M, {(1,): 2}))
    assert sub.elements == frozenset({0, 2})


def test_is_zd_on_extension_examples():
    R4 = Zmod(4)
    Reg4 = regular_module(R4)
    v = is_zd_on_extension(ring_poly(R4, {(1,): 2, (0,): 2}), Reg4)
    assert v.holds and v.witness["element"] == 2
    assert not is_zd_on_extension(ring_poly(R4, {(1,): 1}), Reg4).holds
    P = product_ring(Zmod(2), Zmod(2))
    RegP = regular_module(P)
    f = ring_poly(P, {(0,): (1, 0), (1,): (1, 0)})
    v2 = is_zd_on_extension(f, RegP)
    assert v2.holds and v2.witness["element"] == (0, 1)


def test_brute_force_zd_examples():
    R4 = Zmod(4)
    Reg4 = regular_module(R4)
    v = brute_force_zd(ring_poly(R4, {(1,): 2, (0,): 2}), Reg4, 0)
    assert v.holds
    g = v.witness["cofactor"]
    assert dict(g.support) == {(0,): 2}
    assert not brute_force_zd(ring_poly(R4, {(0,): 1}), Reg4, 2).holds
    R6 = Zmod(6)
    v6 = brute_force_zd(ring_poly(R6, {(1,): 3, (0,): 3}), regular_module(R6), 0)
    assert v6.holds and dict(v6.witness["cofactor"].support) == {(0,): 2}


def test_brute_force_budget():
    R = Zmod(4)
    with pytest.raises(BoundExceeded):
        brute_force_zd(ring_poly(R, {(0,): 1}), regular_module(R), 12, budget=1000)


def test_criterion_matches_brute_force_small():
    # exhaustive agreement for degree <= 2 over Z/4 and Z/6 regular modules;
    # the witness is the least nonzero m that every coefficient kills
    for n in (4, 6):
        R = Zmod(n)
        M = regular_module(R)
        for coeffs in itertools.product(R.elements, repeat=3):
            support = {(i,): c for i, c in enumerate(coeffs) if c}
            if not support:
                continue
            f = ring_poly(R, support)
            crit = is_zd_on_extension(f, M)
            assert crit.holds == brute_force_zd(f, M, 2).holds
            killed = [m for m in M.elements
                      if m != M.zero and all(M.act(c, m) == M.zero for c in coeffs)]
            assert crit.witness == ({"kind": "ext_zd", "element": killed[0]} if killed else None)


def test_mccoy_witness_examples():
    R4 = Zmod(4)
    Reg4 = regular_module(R4)
    f = ring_poly(R4, {(1,): 2, (0,): 2})
    g = module_poly(Reg4, {(0,): 2})
    assert mccoy_witness(f, g) == 2
    # f = 0: any nonzero element of the coefficient span works
    zero_f = ring_poly(R4, {})
    g2 = module_poly(Reg4, {(3,): 2, (0,): 2})
    assert mccoy_witness(zero_f, g2) == 2
    P = product_ring(Zmod(2), Zmod(2))
    RegP = regular_module(P)
    fp = ring_poly(P, {(0,): (1, 0)})
    gp = module_poly(RegP, {(0,): (0, 1), (1,): (0, 1)})
    assert mccoy_witness(fp, gp) == (0, 1)


def test_mccoy_witness_steps_the_content_chain():
    # over Z9[x]/(x^2): (3 + xX)(3 + 2xX) = 9 + 9xX + 2x^2 X^2 = 0, but
    # c(f)c(g) = (3x) != 0, so the chain needs c(f)^2 c(g) = 0 and returns
    # the least nonzero element of c(f)c(g)
    R = poly_quotient(Zmod(9), (0, 0, 1))
    f = ring_poly(R, {(0,): (3, 0), (1,): (0, 1)})
    g = module_poly(regular_module(R), {(0,): (3, 0), (1,): (0, 2)})
    cf, cg = ideal_generated(R, [(3, 0), (0, 1)]), ideal_generated(R, [(3, 0), (0, 2)])
    assert (cf * cg).elements == {(0, 0), (0, 3), (0, 6)}
    assert mccoy_witness(f, g) == (0, 3)


def test_mccoy_witness_accepts_ring_cofactor():
    R4 = Zmod(4)
    f = ring_poly(R4, {(1,): 2, (0,): 2})
    assert mccoy_witness(f, ring_poly(R4, {(0,): 2})) == 2


def test_mccoy_witness_rejects_bad_inputs():
    R4 = Zmod(4)
    Reg4 = regular_module(R4)
    f = ring_poly(R4, {(1,): 2, (0,): 2})
    with pytest.raises(ValueError):
        mccoy_witness(f, module_poly(Reg4, {}))        # g = 0
    with pytest.raises(ValueError):
        mccoy_witness(f, module_poly(Reg4, {(0,): 1}))  # f*g != 0
    lossy = ext_mul(ring_series(R4, {(5,): 1}, precision=8),
                    ring_series(R4, {(4,): 1}, precision=8))
    with pytest.raises(ValueError):
        mccoy_witness(lossy, module_series(Reg4, {(0,): 2}, precision=8))


def test_series_decider_agrees_with_polynomial():
    for n in (4, 6):
        R = Zmod(n)
        M = regular_module(R)
        for coeffs in itertools.product(R.elements, repeat=3):
            support = {(i,): c for i, c in enumerate(coeffs) if c}
            if not support:
                continue
            poly_verdict = is_zd_on_extension(ring_poly(R, support), M).holds
            series_verdict = is_zd_on_extension(
                ring_series(R, support, precision=8), M).holds
            assert poly_verdict == series_verdict


def test_content_submultiplicative():
    R = Zmod(6)
    elems = R.elements
    for cf in itertools.product(elems, repeat=2):
        for cg in itertools.product(elems, repeat=2):
            f = ring_poly(R, {(i,): c for i, c in enumerate(cf) if c})
            g = ring_poly(R, {(i,): c for i, c in enumerate(cg) if c})
            lhs = content_ideal(ext_mul(f, g))
            rhs = content_ideal(f) * content_ideal(g)
            assert lhs.elements <= rhs.elements


def test_embedding_into_two_variables_preserves_verdicts(small_universe):
    from zdbench.statements import embedding_invariance
    report = embedding_invariance(small_universe, max_ring=6, max_module=8)
    assert report["checked"] > 100
    assert report["mismatches"] == []


def test_exact_zero_test_refuses_truncated():
    R = Zmod(4)
    lossy = ext_mul(ring_series(R, {(5,): 1}, precision=8),
                    ring_series(R, {(4,): 1}, precision=8))
    with pytest.raises(ValueError):
        ext_product_is_exactly_zero(lossy, ring_series(R, {(0,): 1}, precision=8))


def test_make_ext_validation():
    R = Zmod(4)
    with pytest.raises(ValueError):
        make_ext("ring", R, {(0,): 7})        # coefficient outside carrier
    with pytest.raises(ValueError):
        make_ext("ring", R, {(-1,): 1})       # negative exponent
    with pytest.raises(ValueError):
        make_ext("ring", R, {(0, 0): 1}, arity=1)


def test_algebra_structure_map_validated():
    R = Zmod(4)
    B = poly_quotient(R, (0, 0, 1))
    bad_embed = {r: B.zero for r in R.elements}
    with pytest.raises(ValueError):
        FiniteAlgebra(B, R, bad_embed)
    with pytest.raises(ValueError, match="not additive at 1,1"):
        FiniteAlgebra(Zmod(4), Zmod(2), {0: 0, 1: 1})
    # additive and 1 -> 1, but (1,0) is idempotent and its image x is not
    P, D = product_ring(Zmod(2), Zmod(2)), poly_quotient(Zmod(2), (0, 0, 1))
    embed = {(0, 0): (0, 0), (1, 0): (0, 1), (0, 1): (1, 1), (1, 1): (1, 0)}
    with pytest.raises(ValueError, match=r"not multiplicative at \(1, 0\),\(1, 0\)"):
        FiniteAlgebra(D, P, embed)


def test_ohm_rush_examples():
    R2 = Zmod(2)
    assert is_ohm_rush(self_algebra(Zmod(6))).holds
    assert is_ohm_rush(extension_algebra(poly_quotient(R2, (0, 0, 1)), R2)).holds
    assert is_ohm_rush(diagonal_algebra(R2, product_ring(R2, R2))).holds


def test_mccoy_self_and_diagonal():
    assert is_mccoy_algebra(self_algebra(Zmod(6))).holds
    R2 = Zmod(2)
    v = is_mccoy_algebra(diagonal_algebra(R2, product_ring(R2, R2)))
    assert not v.holds
    assert v.witness["pair"] == ((1, 0), (0, 1))


def test_mccoy_truncated_polynomials_fail():
    # x*x = 0 with c(x) = (1): the nilpotent generator defeats the McCoy
    # condition, whatever the base modulus
    for n in (2, 4):
        R = Zmod(n)
        v = is_mccoy_algebra(extension_algebra(poly_quotient(R, (0, 0, 1)), R))
        assert not v.holds
        f, g = v.witness["pair"]
        assert f == (0, 1) and g == (0, 1)


def test_mccoy_galois_extensions_hold():
    cases = [
        (Zmod(2), (1, 1, 1)),    # F4
        (Zmod(2), (1, 1, 0, 1)),  # F8
        (Zmod(4), (1, 1, 1)),    # GR(4,2)
        (Zmod(5), (1, 1, 1)),    # F25
    ]
    for base, rel in cases:
        alg = extension_algebra(poly_quotient(base, rel), base)
        assert is_mccoy_algebra(alg).holds


def test_algebra_module_view():
    R = Zmod(2)
    alg = extension_algebra(poly_quotient(R, (1, 1, 1)), R)
    M = alg.as_module()
    assert M.size == 4
    assert zero_divisors_module(M) == frozenset({0})  # F4 is free of rank 2


def test_ext_display_strings():
    R = Zmod(4)
    f = ring_poly(R, {(1,): 2, (0,): 2})
    assert str(f) == "2*X + 2"
    s = ring_series(R, {(1,): 2, (0,): 2}, precision=8)
    assert str(s) == "series(8; 2*X + 2)"
    P = product_ring(Zmod(2), Zmod(2))
    fp = ring_poly(P, {(2, 1): (1, 0)}, arity=2)
    assert str(fp) == "(1,0)*X1^2*X2"
