"""Composed action tables agree with the element-wise definitions, and the
axiom check reads the table that the scans read.

Each construction builds its `rows` from its parts' rows by index
arithmetic.  The reference tables here are filled instead from the
element-wise formula of each construction, r*x computed from the parts'
elements, and compared entry by entry over the rings and modules of the
small universe.  A part's own table is checked by its own case, so the
checks chain down to the base rings' arithmetic.  A polynomial quotient
Z/n[x]/(f), composed from Z/n's tables by Horner's rule, is checked
against the schoolbook product and long division by f, on every PolyQuot
ring and algebra ring of the default universe.
"""

import itertools
import re

import pytest

from zdbench import modules
from zdbench.dsl import parse_ring
from zdbench.extensions import extension_algebra
from zdbench.localize import localize, localize_module
from zdbench.modules import (all_submodules, cyclic_module, direct_sum,
                             free_module, hom_module, is_auslander,
                             power_module, regular_module, verify_module_axioms,
                             zero_divisors_module)
from zdbench.rings import (Zmod, all_mult_closed_subsets, ideal_generated,
                           poly_display, poly_quotient, product_ring)

from harness import negative


def _reference(X, formula):
    """The rows of X filled from r*x = formula(r, x) on elements."""
    return [[X.index(formula(r, x)) for x in X.elements] for r in X.scalars.elements]


def _schoolbook(n, rel):
    """u*v in Z/n[x]/(rel), by the full product and long division by the
    monic relation (coefficients from the constant term up)."""
    d = len(rel) - 1

    def mul(u, v):
        raw = [0] * (2 * d - 1)
        for i, j in itertools.product(range(d), repeat=2):
            raw[i + j] += u[i] * v[j]
        for k in range(2 * d - 2, d - 1, -1):
            c = raw[k]
            for t, coeff in enumerate(rel):
                raw[k - d + t] -= c * coeff
        return tuple(c % n for c in raw[:d])

    return mul


def _mult_sets(R):
    return all_mult_closed_subsets(R, R.elements)


def _polyquot_rings(universe):
    """Z/n[x]/(f) as (R, n, f): the PolyQuot rings and algebra rings of the
    default universe (|B| <= 64), one per name, with f read off the name;
    degree 1 and odd characteristic; and Z/n[x]/(f) for n = 2, 3, 4 and
    four relations f."""
    rings = [R for R in universe.rings if R.kind == "polyquot"]
    rings += [alg.ring for _, alg in universe.all_algebras()
              if alg.ring.kind == "polyquot" and alg.ring.size <= 64]
    rings += [poly_quotient(Zmod(4), (2, 1)), poly_quotient(Zmod(9), (0, 0, 1)),
              poly_quotient(Zmod(3), (1, 0, 1))]
    rings += [poly_quotient(Zmod(n), rel) for n, rel in itertools.product(
        (2, 3, 4), ((0, 0, 1), (0, 0, 0, 1), (1, 1, 1), (1, 1, 0, 1)))]
    named = {R.descriptor: R for R in rings}
    return [(R, R.parts[0].size, parse_ring(name).relation) for name, R in named.items()]


def test_base_ring_tables_match_their_arithmetic(small_universe):
    for R in small_universe.rings:
        if R.kind == "zmod":
            assert R.rows == _reference(R, lambda a, b: a * b % R.size), R.descriptor


def test_polyquot_tables_match_the_schoolbook_product(universe):
    checked = []
    for R, n, rel in _polyquot_rings(universe):
        assert R.rows == _reference(R, _schoolbook(n, rel)), R.descriptor
        checked.append(R.descriptor)
    assert len(checked) == 23
    assert {"PolyQuot(Z4, x + 2)", "PolyQuot(Z9, x^2)", "PolyQuot(Z3, x^2 + 1)",
            "PolyQuot(Z8, x^2 + x + 1)", "PolyQuot(Z3, x^3 + x + 1)"} <= set(checked)


def test_product_ring_table_is_componentwise(small_universe):
    products = [R for R in small_universe.rings if R.kind == "product"]
    assert len(products) == 3
    for R in products:
        A, B = R.parts
        assert R.rows == _reference(
            R, lambda u, v: (A.mul(u[0], v[0]), B.mul(u[1], v[1]))), R.descriptor


def test_localized_ring_table_goes_through_the_class_map(small_universe):
    checked = 0
    for R in small_universe.rings:
        for S in _mult_sets(R):
            loc = localize(R, S)
            L = loc.structure
            assert L.rows == _reference(
                L, lambda a, b: loc.to_class[R.mul(a, b)]), L.descriptor
            checked += 1
    assert checked > 50


def test_regular_and_cyclic_tables(small_universe):
    for R in small_universe.rings:
        assert regular_module(R).rows == R.rows
        for I in R.ideals():
            C = cyclic_module(R, I)

            def coset_of(r, c, C=C, I=I):
                # the representative c' with r*c - c' in I
                rc = R.mul(r, c)
                c2, = [x for x in C.elements if R.add(rc, negative(R, x)) in I.elements]
                return c2

            assert C.rows == _reference(C, coset_of), C.descriptor()


def test_sum_and_power_tables_act_coordinatewise(small_universe):
    sums = powers = 0
    for R in small_universe.rings:
        mods = small_universe.modules[R.descriptor]
        for A, B in itertools.product(mods, repeat=2):
            if A.size * B.size > 64:
                continue
            S = direct_sum(A, B)
            assert S.rows == _reference(
                S, lambda r, u: (A.act(r, u[0]), B.act(r, u[1]))), S.descriptor()
            sums += 1
        for M in mods:
            for t in (1, 2, 3):
                if M.size ** t > 216:
                    continue
                P = power_module(M, t)
                assert P.rows == _reference(
                    P, lambda r, u: tuple(M.act(r, a) for a in u)), P.descriptor()
                powers += 1
    assert sums > 200 and powers > 100


def test_universe_members_match_their_definitions(small_universe):
    """Free(2), Sum and Hom members as the universe built them."""
    kinds = set()
    for R in small_universe.rings:
        mods = {M.tag: M for M in small_universe.modules[R.descriptor]}
        for tag, M in mods.items():
            if tag == "Free(2)":
                formula = lambda r, u: (R.mul(r, u[0]), R.mul(r, u[1]))  # noqa: E731
            elif tag.startswith("Sum("):
                A, B = next((A, B) for A, B in itertools.product(mods.values(), repeat=2)
                            if tag == f"Sum({A.tag},{B.tag})")
                formula = lambda r, u, A=A, B=B: (A.act(r, u[0]), B.act(r, u[1]))  # noqa: E731
            elif tag.startswith("Hom("):
                N = mods[tag[4:-1]]
                formula = lambda r, f, N=N: tuple(N.act(r, a) for a in f)  # noqa: E731
            else:
                continue
            kinds.add(tag[:3])
            assert M.rows == _reference(M, formula), M.descriptor()
    assert kinds == {"Fre", "Sum", "Hom"}


def test_hom_table_acts_pointwise(small_universe):
    checked = 0
    for _, M in small_universe.pairs():
        if M.size > 12:
            continue
        H = hom_module(M)
        assert H.rows == _reference(
            H, lambda r, f: tuple(M.act(r, a) for a in f)), H.descriptor()
        checked += 1
    assert checked > 50


def test_submodule_tables_restrict_the_module(small_universe):
    checked = 0
    for _, M in small_universe.pairs():
        if M.size > 16:
            continue
        for N in all_submodules(M):
            sub = N.as_module()
            assert sub.rows == _reference(sub, M.act), sub.descriptor()
            checked += 1
    assert checked > 300


def test_algebra_view_acts_through_the_structure_map(small_universe):
    checked = 0
    for _, alg in small_universe.all_algebras():
        B, phi = alg.ring, alg.embed
        BR = alg.as_module()
        assert BR.rows == _reference(BR, lambda r, b: B.mul(phi[r], b)), alg.descriptor
        checked += 1
    assert checked == small_universe.counts["algebras"]


def test_localized_module_tables_at_every_mult_set(small_universe):
    checked = 0
    for R in small_universe.rings:
        sets = _mult_sets(R)
        rings = [localize(R, S) for S in sets]
        for M in small_universe.modules[R.descriptor]:
            if M.size > 16:
                continue
            for S, ring_loc in zip(sets, rings):
                loc = localize_module(M, S, ring_loc)
                L = loc.structure
                assert L.scalars is ring_loc.structure
                assert L.rows == _reference(
                    L, lambda r, a: loc.to_class[M.act(r, a)]), L.descriptor()
                checked += 1
    assert checked > 500


# ---------------------------------------------------------------------------
# a fault planted in a composed table


def _every_entry_fault_is_rejected(M):
    """Plant each wrong entry in M's composed rows in turn, check that the
    axiom check rejects it and that `act` reads it, then restore it."""
    verify_module_axioms(M)
    faults = 0
    for r, row in enumerate(M.rows):
        for x, right in enumerate(row):
            for wrong in range(M.size):
                if wrong == right:
                    continue
                row[x] = wrong
                try:
                    assert M.act(M.ring.elements[r], M.elements[x]) == M.elements[wrong]
                    with pytest.raises(ValueError, match=re.escape(M.descriptor())):
                        verify_module_axioms(M)
                finally:
                    row[x] = right
                faults += 1
    verify_module_axioms(M)
    return faults


def test_fault_in_a_composed_sum_table_fails_axioms():
    R = Zmod(4)
    M = direct_sum(cyclic_module(R, ideal_generated(R, [2])), regular_module(R))
    assert _every_entry_fault_is_rejected(M) == 4 * 8 * 7


def test_fault_in_a_composed_hom_table_fails_axioms():
    R = Zmod(6)
    M = hom_module(regular_module(R))
    assert _every_entry_fault_is_rejected(M) == 6 * 6 * 5


def test_planted_entry_moves_the_zero_divisor_scan():
    # the scan reads the same rows: 3*(0,1) = (0,3) in Z2 + Z4 over Z4 is
    # nonzero; planting 0 there puts 3, a unit, into Z(M)
    R = Zmod(4)
    M = direct_sum(cyclic_module(R, ideal_generated(R, [2])), regular_module(R))
    M.rows[3][M.index((0, 1))] = M.index(M.zero)
    assert 3 in zero_divisors_module(M)
    with pytest.raises(ValueError):
        verify_module_axioms(M)


# ---------------------------------------------------------------------------
# composed addition tables: plus[x][y] is the index of x + y, minus[x] that
# of -x, each against the construction's element-wise formula


def _assert_additive(X, add, neg):
    """X's plus (every row composed) and minus against add(x, y) and neg(x)."""
    E = X.elements
    assert [X.plus[x] for x in range(X.size)] == [[X.index(add(a, b)) for b in E] for a in E], X
    assert X.minus == [X.index(neg(a)) for a in E], X


def test_base_ring_add_tables_match_their_arithmetic(small_universe):
    for R in small_universe.rings:
        if R.kind == "zmod":
            n = R.size
            _assert_additive(R, lambda a, b: (a + b) % n, lambda a: -a % n)


def test_polyquot_add_tables_are_coefficientwise(universe):
    for R, n, _ in _polyquot_rings(universe):
        _assert_additive(R, lambda u, v: tuple((a + b) % n for a, b in zip(u, v)),
                         lambda u: tuple(-a % n for a in u))


def test_product_ring_add_table_is_componentwise(small_universe):
    products = [R for R in small_universe.rings if R.kind == "product"]
    assert len(products) == 3
    for R in products:
        A, B = R.parts
        _assert_additive(R, lambda u, v: (A.add(u[0], v[0]), B.add(u[1], v[1])),
                         lambda u: (negative(A, u[0]), negative(B, u[1])))


def test_localized_ring_add_table_goes_through_the_class_map(small_universe):
    checked = 0
    for R in small_universe.rings:
        for S in _mult_sets(R):
            loc = localize(R, S)
            _assert_additive(loc.structure, lambda a, b: loc.to_class[R.add(a, b)],
                             lambda a: loc.to_class[negative(R, a)])
            checked += 1
    assert checked > 50


def test_regular_and_cyclic_add_tables(small_universe):
    for R in small_universe.rings:
        Reg = regular_module(R)
        assert Reg.plus is R.plus and Reg.minus is R.minus
        for I in R.ideals():
            C = cyclic_module(R, I)

            def coset_of(x, C=C, I=I):
                c, = [c for c in C.elements if R.add(x, negative(R, c)) in I.elements]
                return c

            _assert_additive(C, lambda a, b: coset_of(R.add(a, b)),
                             lambda a: coset_of(negative(R, a)))


def test_sum_and_power_add_tables_are_coordinatewise(small_universe):
    sums = powers = 0
    for R in small_universe.rings:
        mods = small_universe.modules[R.descriptor]
        for A, B in itertools.product(mods, repeat=2):
            if A.size * B.size > 64:
                continue
            _assert_additive(direct_sum(A, B),
                             lambda u, v: (A.add(u[0], v[0]), B.add(u[1], v[1])),
                             lambda u: (negative(A, u[0]), negative(B, u[1])))
            sums += 1
        for M in mods:
            for t in (1, 2, 3):
                if M.size ** t > 216:
                    continue
                _assert_additive(power_module(M, t),
                                 lambda u, v: tuple(M.add(a, b) for a, b in zip(u, v)),
                                 lambda u: tuple(negative(M, a) for a in u))
                powers += 1
    assert sums > 200 and powers > 100


def test_hom_add_table_is_pointwise(small_universe):
    checked = 0
    for _, M in small_universe.pairs():
        if M.size > 12:
            continue
        _assert_additive(hom_module(M), lambda f, g: tuple(M.add(a, b) for a, b in zip(f, g)),
                         lambda f: tuple(negative(M, a) for a in f))
        checked += 1
    assert checked > 50


def test_submodule_add_tables_restrict_the_module(small_universe):
    checked = 0
    for _, M in small_universe.pairs():
        if M.size > 16:
            continue
        for N in all_submodules(M):
            _assert_additive(N.as_module(), M.add, lambda a: negative(M, a))
            checked += 1
    assert checked > 300


def test_algebra_view_shares_its_ring_add_table(small_universe):
    # B's own table is checked by the ring cases above
    checked = 0
    for _, alg in small_universe.all_algebras():
        BR = alg.as_module()
        assert BR.plus is alg.ring.plus and BR.minus is alg.ring.minus, alg.descriptor
        checked += 1
    assert checked == small_universe.counts["algebras"]


def test_localized_module_add_tables_at_every_mult_set(small_universe):
    checked = 0
    for R in small_universe.rings:
        sets = _mult_sets(R)
        rings = [localize(R, S) for S in sets]
        for M in small_universe.modules[R.descriptor]:
            if M.size > 16:
                continue
            for S, ring_loc in zip(sets, rings):
                loc = localize_module(M, S, ring_loc)
                _assert_additive(loc.structure, lambda a, b: loc.to_class[M.add(a, b)],
                                 lambda a: loc.to_class[negative(M, a)])
                checked += 1
    assert checked > 500


def _every_add_fault_is_rejected(M):
    """Plant each wrong entry in M's composed plus and minus tables in turn,
    check that `add` or `negative` reads it and that the axiom check rejects it,
    then restore it."""
    verify_module_axioms(M)
    E, faults = M.elements, 0
    cells = [(M.plus[x], y, E[x], E[y]) for x in range(M.size) for y in range(M.size)]
    cells += [(M.minus, x, E[x], None) for x in range(M.size)]
    for table, cell, a, b in cells:
        right = table[cell]
        for wrong in range(M.size):
            if wrong == right:
                continue
            table[cell] = wrong
            try:
                assert (negative(M, a) if b is None else M.add(a, b)) == E[wrong]
                with pytest.raises(ValueError, match=re.escape(M.descriptor())):
                    verify_module_axioms(M)
            finally:
                table[cell] = right
            faults += 1
    verify_module_axioms(M)
    return faults


def test_fault_in_a_composed_sum_add_table_fails_axioms():
    R = Zmod(4)
    M = direct_sum(cyclic_module(R, ideal_generated(R, [2])), regular_module(R))
    assert _every_add_fault_is_rejected(M) == (8 * 8 + 8) * 7


def test_fault_in_a_composed_hom_add_table_fails_axioms():
    R = Zmod(6)
    M = hom_module(regular_module(R))
    assert _every_add_fault_is_rejected(M) == (6 * 6 + 6) * 5


def test_large_carriers_compose_few_add_rows(monkeypatch):
    """P = M^t of the flatness check and a tensor product M (x) B, past
    10,000 elements, compose only the rows their spans read: at most
    log2 |X| per closure, never all |X| rows of an |X|^2 table."""
    built = []

    def recorded(*args, **kwargs):
        built.append(power_module(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(modules, "power_module", recorded)
    R = poly_quotient(Zmod(3), (0, 0, 0, 1))
    M = free_module(R, 3)
    assert modules.is_flat(M).holds
    # M itself, then one P = M^1 per nonzero ideal, all principal
    assert len(built) == 4 and all(P.size == 19683 for P in built)
    for P in built:
        assert len(P.plus) <= P.size.bit_length(), P
    built.clear()
    B = extension_algebra(poly_quotient(Zmod(3), (0, 0, 0, 1)), Zmod(3))
    T = modules.tensor_with_algebra(free_module(Zmod(3), 3), B)
    assert T.size == 19683 and is_auslander(T).holds
    # T's action rows are composed from M's rows and plus, not from T's plus
    assert len(T.plus) <= T.size.bit_length()


def _tuple_reference(parts):
    """The element order, zero and display that product_ring, direct_sum and
    power_module each wrote out before `tuple_carrier` made them all."""
    if len(parts) == 2:
        A, B = parts
        return ([(a, b) for b in B.elements for a in A.elements], (A.zero, B.zero),
                lambda u: f"({A.element_str(u[0])},{B.element_str(u[1])})")
    M, t = parts[0], len(parts)
    return ([c[::-1] for c in itertools.product(M.elements, repeat=t)],
            tuple([M.zero] * t), M.tuple_str)


def test_tuple_carriers_keep_the_order_zero_and_display(small_universe):
    rings = small_universe.rings
    built = [(product_ring(A, B), (A, B)) for A in rings for B in rings]
    for R in rings:
        small = [M for M in small_universe.modules[R.descriptor] if M.size <= 8]
        built.append((free_module(R, 2), (regular_module(R),) * 2))
        built += [(direct_sum(A, B), (A, B)) for A in small for B in small]
        built += [(power_module(M, 3), (M,) * 3) for M in small]
    for X, parts in built:
        elements, zero, display = _tuple_reference(parts)
        assert list(X.elements) == elements and X.zero == zero, X
        assert [X.element_str(x) for x in X.elements] == list(map(display, elements)), X
    # poly_quotient's coefficient vectors, constant term first, as it wrote them out
    for R, n, _ in _polyquot_rings(small_universe):
        d = len(R.zero)
        elements = [c[::-1] for c in itertools.product(range(n), repeat=d)]
        assert list(R.elements) == elements and R.zero == (0,) * d, R
        assert [R.element_str(u) for u in R.elements] == list(map(poly_display, elements)), R
