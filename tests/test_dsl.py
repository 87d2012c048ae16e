import re
import string
import sys

import pytest

from zdbench import dsl
from zdbench.dsl import (AlgebraNode, CyclicNode, FreeNode, HomNode, IntElem,
                         LocalizeNode, PolyQuotNode, ProdNode, RegNode,
                         SumNode, TensorNode, TupleElem, TotalQuotientNode,
                         XPolyElem, ZmodNode, build_algebra, build_module,
                         build_ring, parse_algebra, parse_ext, parse_module,
                         parse_ring, tokenize)
from zdbench.errors import BoundExceeded, DslError
from zdbench.modules import regular_module
from zdbench.rings import Zmod


def test_parse_ring_examples():
    node = parse_ring("Prod(Z2,Z2)")
    assert node == ProdNode(ZmodNode(2), ZmodNode(2))
    assert node.span == (0, len("Prod(Z2,Z2)"))
    pq = parse_ring("PolyQuot(Z2, x^2 + x)")
    assert pq == PolyQuotNode(ZmodNode(2), (0, 1, 1))
    assert parse_ring("TotalQuotient(Z6)") == TotalQuotientNode(ZmodNode(6))
    loc = parse_ring("Localize(Z6, {1,5})")
    assert loc == LocalizeNode(ZmodNode(6), (IntElem(1), IntElem(5)))


def test_parse_module_examples():
    assert parse_module("Reg") == RegNode()
    assert parse_module("Free(2)") == FreeNode(2)
    cyc = parse_module("Cyclic((0,1))")
    assert cyc == CyclicNode((TupleElem((IntElem(0), IntElem(1))),))
    assert parse_module("Sum(Reg,Free(1))") == SumNode(RegNode(), FreeNode(1))
    assert parse_module("Hom(Cyclic(2))") == HomNode(CyclicNode((IntElem(2),)))
    t = parse_module("Tensor(Reg, Algebra(Z4, Z4))")
    assert t == TensorNode(RegNode(), AlgebraNode(ZmodNode(4), ZmodNode(4)))


def test_syntax_errors_carry_spans():
    with pytest.raises(DslError) as err:
        parse_ring("Prod(Z2 Z2)")
    assert err.value.span[0] >= 8
    with pytest.raises(DslError):
        parse_ring("Z6 trailing")
    with pytest.raises(DslError):
        parse_ring("")
    with pytest.raises(DslError):
        parse_module("Cyclic((0,1)")


def test_semantic_errors(caplog):
    # (ring, module or None, message, span): each error names its input and
    # sits at the offending node, nested ones included
    cases = [
        ("PolyQuot(Z4, 2*x^2 + 1)", None, "relation 2*x^2 + 1 is not monic", (0, 23)),
        ("PolyQuot(Z4, 3)", None, "relation must have degree >= 1", (0, 15)),
        ("Z1", None, "Z1: modulus must be >= 2", (0, 2)),
        ("PolyQuot(Prod(Z2,Z2), x^2)", None, "PolyQuot base must be a Zmod ring", (0, 26)),
        ("Prod(Z2,PolyQuot(Prod(Z2,Z2), x^2))", None,
         "PolyQuot base must be a Zmod ring", (8, 34)),
        ("Prod(Z3,Z1)", None, "Z1: modulus must be >= 2", (8, 10)),
        ("Z6", "Cyclic((0,1))", "tuple element not valid in Z6", (7, 12)),
        ("Z2", "Tensor(Reg, Algebra(Z4, Z4))", "algebra base Z4 differs from ring Z2", (0, 28)),
        # the algebra is built before the module, so its error comes first
        ("Z2", "Tensor(Cyclic((1,0)), Algebra(Z1, Z4))", "Z1: modulus must be >= 2", (30, 32)),
        ("Prod(Z2,Z2)", "Cyclic(1)", "integer element not valid in Prod(Z2,Z2)", (7, 8)),
        ("Prod(Z2,Z2)", "Cyclic((1,0,1))", "product elements are pairs", (7, 14)),
    ]
    for ring, module, message, span in cases:
        with pytest.raises(DslError) as err:
            R = build_ring(ring)
            if module is not None:
                build_module(R, module)
        assert (err.value.message, err.value.span) == (message, span), (ring, module)
    with caplog.at_level("WARNING", logger="zdbench.dsl"):
        R = build_ring("Localize(Z12, {3})")
    assert R.descriptor == "Localize(Z12, {1,3,9})"
    assert caplog.messages == [
        "multiplicative set of Z12 was closed under multiplication to {1,3,9}"]


def test_x_in_a_degree_one_quotient():
    """Over Z/n[x]/(x + c) the variable x is the class -c, reduced by the
    relation like any other x-literal."""
    M = build_module(build_ring("PolyQuot(Z4, x + 2)"), "Cyclic(x)")
    assert (M.tag, M.size) == ("Cyclic(2)", 2)
    R = build_ring("PolyQuot(Z3, x + 1)")
    x, x2_plus_x = parse_module("Cyclic(x, x^2 + x)").generators
    assert dsl.resolve_element(x, R) == (2,)
    assert dsl.resolve_element(x2_plus_x, R) == (0,)


def test_monic_relation_accepted():
    R = build_ring("PolyQuot(Z2, x^2 + x)")
    assert R.size == 4


def test_zero_leading_coefficients_are_dropped():
    node = parse_module("Cyclic(0*x)")
    assert node == CyclicNode((IntElem(0),))
    R = build_ring("PolyQuot(Z2, 0*x^3 + x^2)")
    assert R.descriptor == "PolyQuot(Z2, x^2)"
    assert R.same_ring(build_ring("PolyQuot(Z2, x^2)"))


def test_build_ring_examples():
    assert build_ring("Z6").size == 6
    assert build_ring("Prod(Z2,Z2)").size == 4
    assert build_ring("PolyQuot(Z2, x^2)").size == 4
    assert len(build_ring("Localize(Prod(Z2,Z2), {(1,0)})").elements) == 2
    assert build_ring("TotalQuotient(Z6)").size == 6


@pytest.mark.parametrize("text, built", [
    ("Z30001", "Zmod"),
    ("Prod(Z200,Z200)", "product_ring"),
    ("PolyQuot(Z2, x^15)", "poly_quotient"),
])
def test_ring_literals_past_budget_are_refused_before_they_are_built(monkeypatch, text, built):
    def refuse(*args):
        raise AssertionError(f"{built} called for {text}")

    monkeypatch.setattr(dsl, built, refuse)
    with pytest.raises(BoundExceeded, match="exceeds budget 30000"):
        build_ring(text)


def test_ring_literals_at_budget_are_built():
    assert build_ring("Z30000").size == 30000
    assert build_ring("PolyQuot(Z2, x^14)").size == 2 ** 14


def test_build_module_examples():
    R = build_ring("Prod(Z2,Z2)")
    M = build_module(R, "Cyclic((0,1))")
    assert M.size == 2 and M.tag == "Cyclic((0,1))"
    assert build_module(Zmod(6), "Sum(Cyclic(3),Reg)").size == 18
    assert build_module(Zmod(6), "Hom(Cyclic(3))").size == 3
    assert build_module(Zmod(4), "Tensor(Cyclic(2), Algebra(PolyQuot(Z4, x^2), Z4))").size == 4
    assert build_module(Zmod(4), "Cyclic()").size == 4  # zero ideal


def test_build_algebra_canonical_maps():
    assert build_algebra("Algebra(Z6, Z6)").is_trivial_extension
    diag = build_algebra("Algebra(Prod(Z2,Z2), Z2)")
    assert diag.embed[1] == (1, 1)
    ext = build_algebra("Algebra(PolyQuot(Z2, x^2 + x + 1), Z2)")
    assert ext.embed[1] == (1, 0)
    with pytest.raises(DslError):
        build_algebra("Algebra(Z4, Z2)")


def test_element_resolution_in_polyquot():
    R = build_ring("PolyQuot(Z2, x^2)")
    M = build_module(R, "Cyclic(x)")
    assert M.size == 2  # (x) = {0, x}
    M2 = build_module(R, "Cyclic(1+x)")
    assert M2.size == 1  # 1+x is a unit


def test_parse_ext_literals():
    R = Zmod(4)
    f = parse_ext("2*X^1 + 2", R)
    assert dict(f.support) == {(1,): 2, (0,): 2}
    g = parse_ext("series(8; 2*X + 2)", R)
    assert g.variant == "series" and g.precision == 8
    P = build_ring("Prod(Z2,Z2)")
    fp = parse_ext("(1,0) + (1,0)*X", P)
    assert dict(fp.support) == {(0,): (1, 0), (1,): (1, 0)}
    multi = parse_ext("X1*X2^2 + 2", R)
    assert dict(multi.support) == {(1, 2): 1, (0, 0): 2}
    Reg = regular_module(R)
    m = parse_ext("3", R, Reg)
    assert m.base is Reg and m.ring is R
    # `arity` pads a literal that names fewer variables
    assert dict(parse_ext("2*X + 3", R, arity=3).support) == {(1, 0, 0): 2, (0, 0, 0): 3}
    coalesced = parse_ext("2 + 2", R)
    assert coalesced.is_zero
    with pytest.raises(DslError):
        parse_ext("2*Y", R)


def test_module_tags_reparse():
    # every constructed tag is itself valid DSL, so witnesses can be replayed
    R = build_ring("Prod(Z2,Z2)")
    for text in ("Reg", "Free(2)", "Cyclic((0,1))", "Sum(Cyclic((0,1)),Reg)",
                 "Hom(Cyclic((0,1)))"):
        M = build_module(R, text)
        again = build_module(R, M.tag)
        assert again.size == M.size


def test_product_literal_resolution_builds_no_ring(monkeypatch):
    R = build_ring("Prod(Z2,Prod(Z3,Z4))")
    calls = []
    monkeypatch.setattr(dsl, "build_ring", lambda *args: calls.append(args))
    node = parse_module("Cyclic((1,(2,3)))").generators[0]
    assert dsl.resolve_element(node, R) == (1, (2, 3))
    assert calls == []


def test_literals_over_localized_rings_resolve_to_classes():
    R = build_ring("Localize(Prod(Z2,Z2), {(1,0)})")
    node = parse_module("Cyclic((1,1))").generators[0]
    assert dsl.resolve_element(node, R) == (1, 0)
    Q = build_ring("TotalQuotient(Z12)")
    assert dsl.resolve_element(IntElem(14), Q) == 2


_PARSERS = {"ring": parse_ring, "module": parse_module, "algebra": parse_algebra,
            "ext": lambda text: parse_ext(text, Zmod(4))}

# (parser, input, outcome): an error's text with its span, a parsed node with
# its span, or a literal's (arity, support) over Z4
_OUTCOMES = [
    ("ring", "Reg", "unknown ring constructor 'Reg' (at 0..3)"),
    ("ring", "", "unexpected end of input (at 0..0)"),
    ("ring", "   ", "unexpected end of input (at 3..3)"),
    ("ring", "Nope(1)", "unknown ring constructor 'Nope' (at 0..4)"),
    ("ring", "Z²", "unexpected character '²' (at 1..2)"),
    ("ring", "Z", "unknown ring constructor 'Z' (at 0..1)"),
    ("ring", "Prod(Z2 Z2)", "expected ',', found 'Z2' (at 8..10)"),
    ("ring", "Prod(Z2,Z2", "unexpected end of input (at 10..10)"),
    ("ring", "Z6 trailing", "trailing input 'trailing' (at 3..11)"),
    ("ring", "Z2$", "unexpected character '$' (at 2..3)"),
    ("ring", "PolyQuot(Z2, 0*x^3 + x^2)", PolyQuotNode(ZmodNode(2), (0, 0, 1), span=(0, 25))),
    ("ring", "(Z2)", "expected 'name', found '(' (at 0..1)"),
    ("ring", "Prod(Z2,Reg)", "unknown ring constructor 'Reg' (at 8..11)"),
    ("ring", "Algebra(Z4, Z4)", "unknown ring constructor 'Algebra' (at 0..7)"),
    ("ring", "PolyQuot(Z2,", "expected a polynomial (at 12..12)"),
    ("ring", "PolyQuot(Z2, x^)", "expected 'int', found ')' (at 15..16)"),
    ("ring", "PolyQuot(Z2, y)", "cannot parse polynomial term at 'y' (at 13..14)"),
    ("ring", "PolyQuot(Z2, x + )", "cannot parse polynomial term at ')' (at 17..18)"),
    ("ring", "PolyQuot(Z4, x*x)", "expected ')', found '*' (at 14..15)"),
    ("ring", "Localize(Z6, {})", "cannot parse element at '}' (at 14..15)"),
    ("ring", "Localize(Z6, {", "expected an element (at 14..14)"),
    ("ring", "Localize(Z6, 1)", "expected '{', found '1' (at 13..14)"),
    ("ring", "TotalQuotient(Z6", "unexpected end of input (at 16..16)"),
    ("ring", "Localize(Z6, {1,x^2+2*x})",
     LocalizeNode(ZmodNode(6), (IntElem(1), XPolyElem((0, 2, 1))), span=(0, 25))),
    ("module", "Z6", "unknown module constructor 'Z6' (at 0..2)"),
    ("module", "", "unexpected end of input (at 0..0)"),
    ("module", ")", "expected 'name', found ')' (at 0..1)"),
    ("module", "Free(2)", FreeNode(2, span=(0, 7))),
    ("module", "Hom(Reg,Reg)", "expected ')', found ',' (at 7..8)"),
    ("module", "Tensor(Reg, Prod(Z2,Z2))", "expected Algebra(...), found 'Prod' (at 12..16)"),
    ("module", "Cyclic(x*x)", "expected ')', found '*' (at 8..9)"),
    ("module", "Cyclic(2*y)", "expected ')', found '*' (at 8..9)"),
    ("module", "Cyclic(1,)", "cannot parse element at ')' (at 9..10)"),
    ("module", "Cyclic(())", "cannot parse element at ')' (at 8..9)"),
    ("module", "Cyclic(X)", "cannot parse element at 'X' (at 7..8)"),
    ("module", "Cyclic(", "unexpected end of input (at 7..7)"),
    ("module", "Free()", "expected 'int', found ')' (at 5..6)"),
    ("module", "Free(x)", "expected 'int', found 'x' (at 5..6)"),
    ("module", "Free(²)", "unexpected character '²' (at 5..6)"),
    ("module", "Cyclic(0*x)", CyclicNode((IntElem(0),), span=(0, 11))),
    ("module", "Sum(Reg)", "expected ',', found ')' (at 7..8)"),
    ("module", "Reg(1)", "trailing input '(' (at 3..6)"),
    ("module", "Cyclic(2*x^3 + x + 2*x, (1,x))",
     CyclicNode((XPolyElem((0, 3, 0, 2)), TupleElem((IntElem(1), XPolyElem((0, 1))))),
                span=(0, 30))),
    ("algebra", "Reg", "expected Algebra(...), found 'Reg' (at 0..3)"),
    ("algebra", "Algebra(Z4)", "expected ',', found ')' (at 10..11)"),
    ("algebra", "Algebra(Z4, Z4, Z4)", "expected ')', found ',' (at 14..15)"),
    ("algebra", "Algebra(Z4,Reg)", "unknown ring constructor 'Reg' (at 11..14)"),
    ("ext", "X0", "X variables are numbered from 1 (at 0..2)"),
    ("ext", "2*X*Y", "trailing input '*' (at 3..5)"),
    ("ext", "2*Y", "expected an X variable, found 'Y' (at 2..3)"),
    ("ext", "2*x", "polynomial element not valid in Z4 (at 0..3)"),
    ("ext", "Y", "cannot parse element at 'Y' (at 0..1)"),
    ("ext", "X^", "unexpected end of input (at 2..2)"),
    ("ext", "", "expected a term (at 0..0)"),
    ("ext", "X +", "expected a term (at 3..3)"),
    ("ext", "series(8 2)", "expected ';', found '2' (at 9..10)"),
    ("ext", "series(8; X", "unexpected end of input (at 11..11)"),
    ("ext", "series(2; X^3)", "exponent 3 at or past series precision 2"),
    ("ext", "X1*X1^2 + 3*X2", (2, {(3, 0): 1, (0, 1): 3})),
    ("ext", "2*X^1 + 3*X2^2*X1", (2, {(1, 0): 2, (1, 2): 3})),
    ("ext", "X2 + X + 2 + 2", (2, {(1, 0): 1, (0, 1): 1})),
    ("ext", "X + X1*X2 + 3*X", (2, {(1, 1): 1})),
    ("ext", "X1^2 + X1*X1", (1, {(2,): 2})),
    ("ext", "X + X + X + X", (1, {})),
]


def test_malformed_and_edge_inputs():
    wrong = []
    for parser, text, outcome in _OUTCOMES:
        try:
            got = _PARSERS[parser](text)
        except ValueError as exc:
            got = str(exc)
        else:
            got = (got.arity, dict(got.support)) if parser == "ext" else (got, got.span)
            outcome = outcome if parser == "ext" else (outcome, outcome.span)
        if got != outcome:
            wrong.append((parser, text, got))
    assert wrong == []


def test_universe_names_rebuild_to_themselves(universe):
    """Every name the constructions write parses whole and builds to a
    structure of that name, as witness revalidation needs."""
    names = []  # (parser, rebuild to a name, name)
    for R in universe.rings:
        names.append((parse_ring, lambda text: build_ring(text).descriptor, R.descriptor))
        names += [(parse_module, lambda text, R=R: build_module(R, text).tag, M.tag)
                  for M in universe.modules[R.descriptor]]
        names += [(parse_algebra, lambda text: build_algebra(text).descriptor, B.descriptor)
                  for B in universe.algebras[R.descriptor]]
    assert len(names) == 23 + 273 + 51
    wrong = [text for parse, rebuild, text in names
             if parse(text).span != (0, len(text)) or rebuild(text) != text]
    assert wrong == []


def _loop_tokenize(text):
    """The character loop `tokenize` replaced, kept as its reference: tokens
    as (kind, text, start, end)."""
    symbols, digits = set("(){},+*^;"), set(string.digits)
    name_start = set(string.ascii_letters + "_")
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in symbols:
            tokens.append((ch, ch, i, i + 1))
            i += 1
            continue
        j = i + 1
        if ch in digits:
            kind = "int"
            while j < n and text[j] in digits:
                j += 1
        elif ch in name_start:
            kind = "name"
            while j < n and text[j] in name_start | digits:
                j += 1
        else:
            raise DslError(f"unexpected character {ch!r}", (i, i + 1))
        tokens.append((kind, text[i:j], i, j))
        i = j
    return tokens


def _lexed(tokenizer, text):
    """The token tuples, or the error's message and span."""
    try:
        return [tuple(tok) for tok in tokenizer(text)]
    except DslError as exc:
        return exc.message, exc.span


def test_tokenize_matches_the_character_loop(small_universe):
    texts = [R.descriptor for R in small_universe.rings]
    for R in small_universe.rings:
        texts += [M.tag for M in small_universe.modules[R.descriptor]]
        texts += [B.descriptor for B in small_universe.algebras[R.descriptor]]
    texts += [text for _, text, _ in _OUTCOMES]
    texts += ["Prod(Z2 Z2)", "Z6 trailing", "Cyclic((0,1)", "series(8; 2*X + 2)"]
    texts += ["Prod(Z2,\u00a0Z2)", "Cyclic(\u2003(1,0))", "Sum(Reg,\tFree(1))\n",
              "\u00a0\u2003\t\n", "Z\u20032"]
    texts += ["Z²", "Free(٣)", "Z٣", "Cyclic(é)", "é", "x²", "X²"]
    # between tokens: every character below U+0180, and every one that
    # str.isspace or a pattern's \s takes for whitespace
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    spaces = set(re.findall(r"\s", every)) | {c for c in every if c.isspace()}
    texts += [f"Prod(Z2,{c}Z2)" for c in sorted(spaces) + list(every[:0x180])]
    wrong = [t for t in texts if _lexed(tokenize, t) != _lexed(_loop_tokenize, t)]
    assert wrong == []
