import itertools

import pytest

from zdbench.errors import BoundExceeded
from zdbench.extensions import (FiniteAlgebra, brute_force_zd,
                                diagonal_algebra, exact_product,
                                extension_algebra, is_mccoy_algebra,
                                is_ohm_rush, is_zd_on_extension, make_ext,
                                mccoy_witness, ring_poly, self_algebra)
from zdbench.modules import regular_module, zero_divisors_module
from zdbench.rings import Zmod, ideal_generated, poly_quotient, product_ring


def series(R, support, precision=8):
    return make_ext(R, support, "series", 1, precision)


def test_ext_mul_collapses_to_zero():
    R = Zmod(4)
    f = ring_poly(R, {(1,): 2, (0,): 2})
    two = make_ext(regular_module(R), {(0,): 2})
    assert exact_product(f, two) == {}  # 4X + 4 = 0 mod 4


def test_ext_mul_identity_and_add():
    R = Zmod(6)
    M = regular_module(R)
    g = make_ext(M, {(2,): 3, (0,): 2})
    assert exact_product(ring_poly(R, {(0,): 1}), g) == dict(g.support)
    # colliding terms add: (1 + X)(2 + 4X) = 2 + (4 + 2)X + 4X^2 = 2 + 4X^2
    f = ring_poly(R, {(0,): 1, (1,): 1})
    assert exact_product(f, make_ext(M, {(0,): 2, (1,): 4})) == {(0,): 2, (2,): 4}


def test_bivariate_frobenius():
    R = Zmod(2)
    f = ring_poly(R, {(1, 0): 1, (0, 1): 1}, arity=2)
    g = make_ext(regular_module(R), dict(f.support), arity=2)
    assert exact_product(f, g) == {(2, 0): 1, (0, 2): 1}  # cross term 2*X1*X2 = 0


def test_variant_mismatch_rejected():
    R = Zmod(4)
    f = ring_poly(R, {(0,): 1})
    s = series(R, {(0,): 1})
    # each message names the field that differs and both values
    with pytest.raises(ValueError, match="^extension elements have mismatched "
                       "variant: monoid and series$"):
        mccoy_witness(f, s)
    with pytest.raises(ValueError, match="^extension elements have mismatched "
                       "arity: 2 and 1$"):
        mccoy_witness(ring_poly(R, {(1, 1): 1}, arity=2), f)
    with pytest.raises(ValueError, match="^extension elements have mismatched "
                       "precision: 8 and 4$"):
        mccoy_witness(s, series(R, {(0,): 1}, precision=4))


def test_scalar_action_requires_mixed_kinds():
    # f acts on the cofactor g, so f takes ring coefficients
    g = make_ext(regular_module(Zmod(4)), {(0,): 2})
    with pytest.raises(ValueError, match="^f must have ring coefficients$"):
        mccoy_witness(g, g)


def test_series_exponent_past_precision_rejected():
    with pytest.raises(ValueError):
        series(Zmod(4), {(9,): 1})


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
    g = make_ext(Reg4, {(0,): 2})
    assert mccoy_witness(f, g) == 2
    # f = 0: any nonzero element of the coefficient span works
    zero_f = ring_poly(R4, {})
    g2 = make_ext(Reg4, {(3,): 2, (0,): 2})
    assert mccoy_witness(zero_f, g2) == 2
    P = product_ring(Zmod(2), Zmod(2))
    RegP = regular_module(P)
    fp = ring_poly(P, {(0,): (1, 0)})
    gp = make_ext(RegP, {(0,): (0, 1), (1,): (0, 1)})
    assert mccoy_witness(fp, gp) == (0, 1)


def test_mccoy_witness_steps_the_content_chain():
    # over Z9[x]/(x^2): (3 + xX)(3 + 2xX) = 9 + 9xX + 2x^2 X^2 = 0, but
    # c(f)c(g) = (3x) != 0, so the chain needs c(f)^2 c(g) = 0 and returns
    # the least nonzero element of c(f)c(g)
    R = poly_quotient(Zmod(9), (0, 0, 1))
    f = ring_poly(R, {(0,): (3, 0), (1,): (0, 1)})
    g = make_ext(regular_module(R), {(0,): (3, 0), (1,): (0, 2)})
    cfcg = ideal_generated(R, [R.mul(a, b) for a in f.coefficients()
                               for b in g.coefficients()])
    assert cfcg.elements == {(0, 0), (0, 3), (0, 6)}
    assert mccoy_witness(f, g) == (0, 3)


def test_mccoy_witness_accepts_ring_cofactor():
    R4 = Zmod(4)
    f = ring_poly(R4, {(1,): 2, (0,): 2})
    assert mccoy_witness(f, ring_poly(R4, {(0,): 2})) == 2


@pytest.mark.parametrize("R", [Zmod(4), product_ring(Zmod(2), Zmod(2)),
                               poly_quotient(Zmod(2), (0, 0, 1))],
                         ids=lambda R: R.descriptor)
def test_mccoy_witness_reads_a_ring_cofactor_as_one_over_reg(R):
    """g over R is g over the regular module, with no conversion between."""
    Reg, pairs = regular_module(R), 0
    for cf, cg in itertools.product(itertools.product(R.elements, repeat=2), repeat=2):
        f = ring_poly(R, dict(enumerate(cf)))
        g = ring_poly(R, dict(enumerate(cg)))
        if g.is_zero or exact_product(f, g):
            continue
        pairs += 1
        assert mccoy_witness(f, g) == mccoy_witness(f, make_ext(Reg, dict(g.support)))
    assert pairs > 0


def test_mccoy_witness_rejects_bad_inputs():
    R4 = Zmod(4)
    Reg4 = regular_module(R4)
    f = ring_poly(R4, {(1,): 2, (0,): 2})
    with pytest.raises(ValueError, match="^g must be nonzero$"):
        mccoy_witness(f, make_ext(Reg4, {}))
    with pytest.raises(ValueError, match=r"^f\*g != 0"):
        mccoy_witness(f, make_ext(Reg4, {(0,): 1}))


def test_series_decider_agrees_with_polynomial():
    for n in (4, 6):
        R = Zmod(n)
        M = regular_module(R)
        for coeffs in itertools.product(R.elements, repeat=3):
            support = {(i,): c for i, c in enumerate(coeffs) if c}
            if not support:
                continue
            poly_verdict = is_zd_on_extension(ring_poly(R, support), M).holds
            series_verdict = is_zd_on_extension(series(R, support), M).holds
            assert poly_verdict == series_verdict


def test_criterion_matches_brute_force_in_two_variables(small_universe):
    # f over the support {1, X1, X2} against the oracle's cofactors of
    # degree <= 1 in each variable, on every pair with |R| <= 6, |M| <= 4
    pairs = [(R, M) for R, M in small_universe.pairs() if R.size <= 6 and M.size <= 4]
    checked = 0
    for R, M in pairs:
        for c in itertools.product(R.elements, repeat=3):
            f = ring_poly(R, dict(zip([(0, 0), (1, 0), (0, 1)], c)), arity=2)
            if f.is_zero:
                continue
            assert is_zd_on_extension(f, M).holds == brute_force_zd(f, M, 1).holds, (
                R.descriptor, M.tag, str(f))
            checked += 1
    assert checked > 2000


def test_make_ext_validation():
    R = Zmod(4)
    with pytest.raises(ValueError):
        make_ext(R, {(0,): 7})        # coefficient outside carrier
    with pytest.raises(ValueError):
        make_ext(R, {(-1,): 1})       # negative exponent
    with pytest.raises(ValueError):
        make_ext(R, {(0, 0): 1}, arity=1)


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
    s = series(R, {(1,): 2, (0,): 2})
    assert str(s) == "series(8; 2*X + 2)"
    P = product_ring(Zmod(2), Zmod(2))
    fp = ring_poly(P, {(2, 1): (1, 0)}, arity=2)
    assert str(fp) == "(1,0)*X1^2*X2"
