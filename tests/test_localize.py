import dataclasses
from types import SimpleNamespace

import pytest

from zdbench.localize import (_finish, closed_multiplicative_set, localize,
                              localize_module, localized_ring_as_base_module,
                              natural_map_kernel, total_quotient)
from zdbench.modules import (cyclic_module, direct_sum, is_auslander,
                             is_torsion_free, regular_module,
                             zero_divisors_module)
from zdbench.rings import (Carrier, FiniteRing, MultiplicativeSet, Zmod,
                           all_mult_closed_subsets, ideal_generated,
                           multiplicative_closure, product_ring)

from harness import negative


@pytest.fixture
def prod22():
    return product_ring(Zmod(2), Zmod(2))


def test_localize_kills_second_factor(prod22):
    S = MultiplicativeSet(prod22, frozenset({(1, 1), (1, 0)}))
    loc = localize(prod22, S)
    assert len(loc.structure.elements) == 2
    # inverting (1,0) annihilates the classes of (0,b)
    assert loc.to_class[(0, 1)] == loc.to_class[(0, 0)]
    assert prod22.zero not in S.elements


def test_localize_at_units_is_isomorphism():
    R = Zmod(6)
    S = MultiplicativeSet(R, R.units())
    loc = localize(R, S)
    Q = loc.structure
    assert len(Q.elements) == R.size
    for a in R.elements:
        for b in R.elements:
            assert loc.to_class[R.add(a, b)] == Q.add(loc.to_class[a], loc.to_class[b])
            assert loc.to_class[R.mul(a, b)] == Q.mul(loc.to_class[a], loc.to_class[b])


def test_localize_module_regular_action(prod22):
    I = ideal_generated(prod22, [(0, 1)])
    M = cyclic_module(prod22, I)
    S = MultiplicativeSet(prod22, frozenset({(1, 1), (1, 0)}))
    ring_loc = localize(prod22, S)
    mod_loc = localize_module(M, S, ring_loc)
    # (1,0) already acts bijectively on M, so M_S is an isomorphic image
    assert mod_loc.structure.size == 2
    assert mod_loc.kernel == frozenset({M.zero})
    assert is_auslander(mod_loc.structure).holds  # over R_S, a field of size 2


def test_localize_with_zero_is_degenerate():
    R = Zmod(4)
    S = multiplicative_closure(R, [0])
    loc = localize(R, S)
    assert R.zero in S.elements
    assert len(loc.structure.elements) == 1


def _class_of_pair(loc, x, s):
    """The class of the fraction x/s: the one class c with s*c ~ x."""
    if s not in loc.mult_set.elements:
        raise ValueError("denominator is not in the multiplicative set")
    X, to_class = loc.source, loc.to_class
    c, = [c for c in loc.structure.elements if to_class[X.act(s, c)] == to_class[x]]
    return c


def _pairs_related(loc, p, q) -> bool:
    """The defining relation: exists u in S with u*(t*x - s*y) = 0."""
    (x, s), (y, t) = p, q
    X = loc.source
    diff = X.add(X.act(t, x), negative(X, X.act(s, y)))
    return any(X.act(u, diff) == X.zero for u in loc.mult_set.elements)


def test_class_of_pair_and_relation(prod22):
    S = MultiplicativeSet(prod22, frozenset({(1, 1), (1, 0)}))
    loc = localize(prod22, S)
    # (x, s) with s invertible-after-localization: x/(1,0) = class of x * (1,0)^-1
    assert _class_of_pair(loc, (1, 1), (1, 0)) == loc.to_class[(1, 1)]
    assert _pairs_related(loc, ((0, 1), (1, 1)), ((0, 0), (1, 1)))
    with pytest.raises(ValueError):
        _class_of_pair(loc, (1, 1), (0, 1))


def test_total_quotient_is_identity_sized():
    for R in (Zmod(6), Zmod(7), product_ring(Zmod(2), Zmod(2))):
        loc = total_quotient(R)
        assert len(loc.structure.elements) == R.size


def test_natural_map_kernel_trivial_over_finite_rings(prod22):
    # regular elements of a finite ring are units, so the kernel vanishes
    I = ideal_generated(prod22, [(0, 1)])
    M = cyclic_module(prod22, I)
    assert natural_map_kernel(M).is_zero
    assert natural_map_kernel(regular_module(Zmod(6))).is_zero


def test_localized_ring_as_base_module(prod22):
    R = Zmod(6)
    S = MultiplicativeSet(R, R.units())
    loc = localize(R, S)
    M = localized_ring_as_base_module(loc)
    assert zero_divisors_module(M) == R.zero_divisors()
    assert is_torsion_free(M).holds and is_auslander(M).holds


def test_closed_multiplicative_set_notice():
    R = Zmod(6)
    S, enlarged = closed_multiplicative_set(R, [2])
    assert enlarged and S.elements == frozenset({1, 2, 4})
    S2, enlarged2 = closed_multiplicative_set(R, [5])
    assert not enlarged2 and S2.elements == frozenset({1, 5})


def test_mismatched_ring_rejected(prod22):
    S = MultiplicativeSet(Zmod(6), frozenset({1, 5}))
    with pytest.raises(ValueError):
        localize(prod22, S)
    M = regular_module(prod22)
    with pytest.raises(ValueError):
        localize_module(M, S)


def _small_localizations(U):
    """Each ring of U localized at each of its multiplicative sets, each
    followed by its modules of at most 12 elements localized at that set."""
    for R in U.rings:
        for S in all_mult_closed_subsets(R, R.elements):
            ring_loc = localize(R, S)
            yield ring_loc
            for M in U.modules[R.descriptor]:
                if M.size <= 12:
                    yield localize_module(M, S, ring_loc)


def test_pair_relation_matches_classes(small_universe):
    """class(x/s) = class(y/t) iff (x,s) ~ (y,t), on every pair of every
    localization of the small modules: what the check in `_finish` proves."""
    localizations = comparisons = 0
    for loc in _small_localizations(small_universe):
        if isinstance(loc.structure, FiniteRing):
            continue
        M, S = loc.source, loc.mult_set
        pairs = [(x, s) for s in S.ring.sorted_elements(S.elements) for x in M.elements]
        classes = [_class_of_pair(loc, *p) for p in pairs]
        for p, cp in zip(pairs, classes):
            for q, cq in zip(pairs, classes):
                assert _pairs_related(loc, p, q) == (cp == cq), (M.descriptor(), S, p, q)
        localizations += 1
        comparisons += len(pairs) ** 2
    assert (localizations, comparisons) == (958, 565_222)


def test_localizing_reads_no_element_arithmetic(small_universe, monkeypatch):
    """Every localization of the pair test builds again, with the same
    classes, while element-level act (mul on a ring) and add raise."""
    def refuse(*args):
        raise AssertionError("element-level arithmetic while localizing")

    rings = modules = 0
    for loc in _small_localizations(small_universe):
        X, S = loc.source, loc.mult_set
        with monkeypatch.context() as patch:
            for cls, name in ((Carrier, "act"), (Carrier, "add"), (FiniteRing, "mul")):
                patch.setattr(cls, name, refuse)
            is_ring = isinstance(loc.structure, FiniteRing)
            again = localize(X, S) if is_ring else localize_module(X, S)
        assert (again.kernel, again.to_class) == (loc.kernel, loc.to_class)
        assert again.structure.elements == loc.structure.elements
        rings += is_ring
        modules += not is_ring
    assert (rings, modules) == (145, 958)


@pytest.fixture(params=["ring", "module"])
def z6_at_3(request):
    """Z6 or Z6/(2) + Z6 localized at {1, 3}: kernels and classes of several sizes."""
    R = Zmod(6)
    S = multiplicative_closure(R, [3])
    if request.param == "ring":
        return localize(R, S)
    M = direct_sum(cyclic_module(R, ideal_generated(R, [2])), regular_module(R))
    return localize_module(M, S)


def _refinish(loc, **changes):
    return _finish(dataclasses.replace(loc, **changes))


def test_every_wrong_class_fails_finish(z6_at_3):
    """One wrong to_class entry, with the classes kept or cut to its image."""
    X = z6_at_3.source.elements
    faults = 0
    for x in X:
        for wrong in X:
            if wrong != z6_at_3.to_class[x]:
                to_class = {**z6_at_3.to_class, x: wrong}
                image = SimpleNamespace(elements=tuple(dict.fromkeys(to_class.values())))
                for changes in ({}, {"structure": image}):
                    faults += 1
                    with pytest.raises(RuntimeError):
                        _refinish(z6_at_3, to_class=to_class, **changes)
    assert faults == 2 * len(X) * (len(X) - 1)


def test_class_map_onto_too_few_cosets_fails_finish():
    # Z4 at {1}: 3 sent to 1 and the classes cut to {0, 1, 2}; every denominator
    # stays injective on them, but 3 - 1 is not in K = {0}
    R = Zmod(4)
    loc = localize(R, multiplicative_closure(R, []))
    with pytest.raises(RuntimeError, match="representative of its coset"):
        _refinish(loc, to_class={0: 0, 1: 1, 2: 2, 3: 1},
                  structure=SimpleNamespace(elements=(0, 1, 2)))


def test_kernel_missing_an_element_fails_finish(z6_at_3):
    K = z6_at_3.kernel
    assert len(K) > 1
    for k in K:
        with pytest.raises(RuntimeError):
            _refinish(z6_at_3, kernel=K - {k})


def test_kernel_with_an_extra_element_fails_finish(z6_at_3):
    K = z6_at_3.kernel
    for x in set(z6_at_3.source.elements) - K:
        with pytest.raises(RuntimeError):
            _refinish(z6_at_3, kernel=K | {x})


def test_kernel_too_large_with_matching_classes_fails_finish(z6_at_3):
    # the localization at {0, 1} has K = X and one class, all consistent with
    # each other; only the kernel check sees that neither 1 nor 3 kills all of X
    src, R = z6_at_3.source, z6_at_3.mult_set.ring
    at_zero = multiplicative_closure(R, [0])
    collapsed = (localize(src, at_zero) if isinstance(z6_at_3.structure, FiniteRing)
                 else localize_module(src, at_zero))
    with pytest.raises(RuntimeError, match="killed by no denominator"):
        _refinish(collapsed, mult_set=z6_at_3.mult_set)


def test_non_injective_denominator_fails_finish():
    # Z6 at {1}: six classes, on which 3 is not injective (3*0 = 3*2 = 0)
    R = Zmod(6)
    loc = localize(R, multiplicative_closure(R, []))
    assert loc.structure.size == 6
    with pytest.raises(RuntimeError, match="not injective"):
        _refinish(loc, mult_set=multiplicative_closure(R, [3]))
