"""The table-driven module checks can fail, and Hom agrees with brute force.

On the pattern of tests/test_statement_faults.py: each fault case hands a
checker a module or a map with one wrong entry and asserts that the checker
rejects it, naming the first offending elements in sweep order.
"""

import itertools
import re

import pytest

from zdbench import modules
from zdbench.modules import (FiniteModule, _extend_linear, _tables, ann,
                             cyclic_module, direct_sum, free_module,
                             generating_set, hom_module, quotient_module,
                             regular_module, submodule_generated,
                             verify_module_axioms, zero_divisors_module)
from zdbench.rings import (Zmod, ideal_generated, poly_quotient, product_ring,
                           span)

from harness import negative


def _with(M, **ops):
    parts = {"add": M.add, "neg": lambda a: negative(M, a), "act": M.act, **ops}
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


def test_non_abelian_group_fails_commutativity():
    # S3 under composition, with Z6 acting by powers
    S3 = list(itertools.permutations(range(3)))

    def add(p, q):
        return tuple(p[i] for i in q)

    def act(k, p):
        out = S3[0]
        for _ in range(k):
            out = add(out, p)
        return out

    M = FiniteModule(Zmod(6), S3, add, lambda p: tuple(sorted(range(3), key=p.__getitem__)),
                     S3[0], act, tag="planted")
    with pytest.raises(ValueError, match="addition not commutative"):
        verify_module_axioms(M)


@pytest.mark.parametrize("ops, message", [
    # 2 named as zero, with -a = 2 - a: every law holds but a + 2 != a
    ({"zero": 2, "neg": lambda a: (2 - a) % 4}, "m + 0 != m at 0"),
    ({"neg": lambda a: a}, "m + (-m) != 0 at 1"),
    ({"act": lambda r, m: 0}, "1*m != m at 1"),
], ids=["zero", "neg", "one"])
def test_wrong_identity_or_inverse_fails_axioms(ops, message):
    M = regular_module(Zmod(4))
    parts = {"add": M.add, "neg": lambda a: negative(M, a), "zero": M.zero, "act": M.act, **ops}
    bad = FiniteModule(M.ring, M.elements, parts["add"], parts["neg"], parts["zero"],
                       parts["act"], tag="planted")
    with pytest.raises(ValueError, match=re.escape(message)):
        verify_module_axioms(bad)


def test_additive_but_not_multiplicative_action_fails_axioms():
    # Z2 over Z2[x]/(x^2), a + bx acting as a + b: every law holds but x*x = 0
    R = poly_quotient(Zmod(2), (0, 0, 1))
    M = FiniteModule(R, [0, 1], lambda a, b: (a + b) % 2, lambda a: a, 0,
                     lambda r, m: (r[0] + r[1]) * m % 2, tag="planted")
    with pytest.raises(ValueError, match=re.escape("(rs)m != r(sm) at (0, 1),(0, 1),1")):
        verify_module_axioms(M)


def _single_entry_faults(M):
    """Every module that differs from M in one symmetric add entry or one act entry."""
    E, R = M.elements, M.ring
    for i, a in enumerate(E):
        for b in E[i:]:
            for w in E:
                if w != M.add(a, b):
                    yield _with(M, add=lambda x, y, a=a, b=b, w=w:
                                w if {x, y} == {a, b} else M.add(x, y))
    for r in R.elements:
        for m in E:
            for w in E:
                if w != M.act(r, m):
                    yield _with(M, act=lambda s, x, r=r, m=m, w=w:
                                w if (s, x) == (r, m) else M.act(s, x))


def test_every_single_entry_fault_fails_axioms():
    Z4 = Zmod(4)
    modules = [regular_module(Z4),
               regular_module(product_ring(Zmod(2), Zmod(2))),
               regular_module(poly_quotient(Zmod(2), (1, 1, 1))),
               direct_sum(cyclic_module(Z4, ideal_generated(Z4, [2])), regular_module(Z4))]
    faults = 0
    for M in modules:
        verify_module_axioms(M)
        for bad in _single_entry_faults(M):
            faults += 1
            with pytest.raises(ValueError):
                verify_module_axioms(bad)
    assert faults == 710


def test_extend_linear_returns_only_linear_maps(small_universe):
    """Over every generator-image tuple, a returned map is additive and
    R-equivariant element by element, and an image outside (0 :_M ann g)
    is refused."""
    checked = 0
    for R, M in small_universe.pairs():
        if M.size > 8:
            continue
        E, zero = M.elements, M.zero
        gens = generating_set(M)
        add, act = _tables(M)
        g_idx = [M.index(g) for g in gens]
        matched = [{v for v in E
                    if all(M.act(r, v) == zero for r in R.elements if M.act(r, g) == zero)}
                   for g in gens]
        for images in itertools.product(E, repeat=len(gens)):
            f = _extend_linear(add, act, M.index(zero), g_idx, [M.index(v) for v in images])
            if any(v not in ok for v, ok in zip(images, matched)):
                assert f is None, (M.descriptor(), images)
            if f is None:
                continue
            fx = {x: E[i] for x, i in zip(E, f)}
            assert all(fx[M.add(a, b)] == M.add(fx[a], fx[b]) for a in E for b in E)
            assert all(fx[M.act(r, a)] == M.act(r, fx[a]) for r in R.elements for a in E)
            assert [fx[g] for g in gens] == list(images)
            checked += 1
    assert checked >= 300


def test_extend_linear_on_additive_generators_matches_all_rows(small_universe):
    """The walk over the action rows of an additive generating set S of R,
    as `hom_module` runs it, returns what the walk over all of R's rows
    returns, on every image tuple in M^k, maps and refusals alike."""
    maps = refused = wide = 0
    for R, M in small_universe.pairs():
        gens = generating_set(M)
        if M.size ** len(gens) > 4096:
            continue
        S: list = []
        span(R.plus, R.index(R.zero), range(R.size), S)
        wide += len(S) > 1
        add, act = _tables(M)
        zero, g_idx = M.index(M.zero), [M.index(g) for g in gens]
        act_s = [act[s] for s in S]
        for images in itertools.product(range(M.size), repeat=len(gens)):
            f = _extend_linear(add, act, zero, g_idx, images)
            assert _extend_linear(add, act_s, zero, g_idx, images) == f, \
                (M.descriptor(), images)
            if f is None:
                refused += 1
            else:
                maps += 1
    assert maps > 1000 and refused > 1000 and wide > 10, (maps, refused, wide)


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


def _hom_by_every_candidate(M):
    """The maps and the candidate count of the per-candidate walk: every
    tuple of annihilator-matched generator images through `_extend_linear`,
    maps sorted by index tuple and turned into elements."""
    R, gens = M.ring, generating_set(M)
    add, act = _tables(M)
    zero, g_idx = M.index(M.zero), [M.index(g) for g in gens]
    images = [[v for v in range(M.size) if all(row[v] == zero for row in act if row[g] == zero)]
              for g in g_idx]
    S: list = []
    span(R.plus, R.index(R.zero), range(R.size), S)
    act_s = [act[s] for s in S]
    candidates = list(itertools.product(*images))
    found = sorted(f for f in (_extend_linear(add, act_s, zero, g_idx, chosen)
                               for chosen in candidates) if f is not None)
    return [tuple(M.elements[i] for i in f) for f in found], len(candidates)


def _z4_squared_mod_22():
    F = free_module(Zmod(4), 2)
    return quotient_module(F, submodule_generated(F, [(2, 2)]).elements, "Free(2)/<(2,2)>")


def test_hom_group_closure_matches_every_candidate(small_universe):
    """`hom_module` extends only the candidates that are not yet sums of
    maps found so far; it returns exactly the maps the walk over every
    candidate accepts.  On the universe every candidate is a map, so a
    quotient of Z4^2 with refusals joins them."""
    checked = 0
    for _, M in small_universe.pairs():
        if M.size ** len(generating_set(M)) > 4096:
            continue
        expected, _ = _hom_by_every_candidate(M)
        assert list(hom_module(M, budget=4096).elements) == expected, M.descriptor()
        checked += 1
    assert checked >= 70
    Q = _z4_squared_mod_22()
    expected, candidates = _hom_by_every_candidate(Q)
    assert (candidates, len(expected)) == (64, 32)
    assert list(hom_module(Q).elements) == expected


def test_hom_of_z4_squared_extends_few_candidates(monkeypatch):
    """The 256 maps of Z4^2 come from four walks.  Each walked map f joins
    with the whole cyclic group it generates, of order at most 4, so no
    fewer walks reach 256 maps; a closure that added only H + f, not
    H + 2f and H + 3f, would need eight."""
    calls = []

    def counted(*args):
        calls.append(args[-1])
        return _extend_linear(*args)

    monkeypatch.setattr(modules, "_extend_linear", counted)
    H = hom_module(free_module(Zmod(4), 2))
    assert H.size == 256
    assert len(calls) == 4, calls


def test_generating_set_matches_the_per_step_closure(small_universe):
    """The one greedy search against the loop it replaced, which recomputed
    the submodule generated by every generator so far at each step."""
    for R, M in small_universe.pairs():
        gens, closed = [], frozenset({M.zero})
        for m in M.elements:
            if m not in closed:
                gens.append(m)
                closed = submodule_generated(M, gens).elements
        assert generating_set(M) == tuple(gens), (R.descriptor, M.tag)


def test_small_generators_generate_every_submodule(small_universe):
    for R, M in small_universe.pairs():
        if M.size > 16:
            continue
        for N in modules.all_submodules(M):
            gens = N.small_generators()
            assert submodule_generated(M, gens) == N, (R.descriptor, M.tag, gens)
            # a cyclic submodule gets one generator
            if any(len(submodule_generated(M, [x]).elements) == len(N.elements)
                   for x in N.elements):
                assert len(gens) == 1, (R.descriptor, M.tag, gens)


def test_an_ideal_is_the_submodule_of_reg_with_its_elements(small_universe):
    for R in small_universe.rings:
        Reg = small_universe.regular(R)
        for I in R.ideals():
            N = submodule_generated(Reg, I.generators)
            assert N == I and N.small_generators() == I.small_generators(), I
            assert I.as_module().rows == N.as_module().rows, I
