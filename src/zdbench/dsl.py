"""Construction DSL: parsing, printing, and building of rings, modules,
algebras, and extension-element literals.

Grammar (whitespace-insensitive):

    Ring    := Z<digits> | Prod(Ring,Ring) | PolyQuot(Ring, xpoly)
             | Localize(Ring, {elem,...}) | TotalQuotient(Ring)
    Module  := Reg | Free(<k>) | Cyclic(elem,...) | Sum(Module,Module)
             | Hom(Module) | Tensor(Module, Algebra)
    Algebra := Algebra(Ring, Ring)           # canonical structure map
    elem    := <int> | (elem,elem) | xpoly   # xpoly only in PolyQuot rings
    extpoly := term + term + ...             # coefficients times X-monomials
    series  := series(<precision>; extpoly)

Printing then reparsing yields an equal tree (spans excluded from equality).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Optional

from .errors import DslError
from .extensions import (ExtElement, FiniteAlgebra, diagonal_algebra,
                         extension_algebra, make_ext, self_algebra)
from .localize import closed_multiplicative_set, localize, total_quotient
from .modules import (FiniteModule, cyclic_module, direct_sum, free_module,
                      hom_module, regular_module, tensor_with_algebra)
from .rings import (FiniteRing, Zmod, ideal_generated, poly_quotient,
                    poly_str, poly_terms, product_ring)

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# tokens

_SYMBOLS = set("(){},+*^;")


@dataclass(frozen=True)
class Token:
    kind: str          # "name" | "int" | symbol itself
    text: str
    start: int
    end: int


def tokenize(text: str) -> list[Token]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _SYMBOLS:
            tokens.append(Token(ch, ch, i, i + 1))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(Token("int", text[i:j], i, j))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("name", text[i:j], i, j))
            i = j
            continue
        raise DslError(f"unexpected character {ch!r}", (i, i + 1))
    return tokens


# ---------------------------------------------------------------------------
# AST nodes (span never participates in equality)


@dataclass(frozen=True)
class IntElem:
    value: int
    span: tuple = field(compare=False, default=(0, 0))


@dataclass(frozen=True)
class TupleElem:
    items: tuple
    span: tuple = field(compare=False, default=(0, 0))


@dataclass(frozen=True)
class XPolyElem:
    coeffs: tuple  # dense, constant term first
    span: tuple = field(compare=False, default=(0, 0))


@dataclass(frozen=True)
class ZmodNode:
    n: int
    span: tuple = field(compare=False, default=(0, 0))


@dataclass(frozen=True)
class ProdNode:
    left: object
    right: object
    span: tuple = field(compare=False, default=(0, 0))


@dataclass(frozen=True)
class PolyQuotNode:
    base: object
    relation: tuple  # dense coefficients, constant term first
    span: tuple = field(compare=False, default=(0, 0))


@dataclass(frozen=True)
class LocalizeNode:
    ring: object
    elements: tuple
    span: tuple = field(compare=False, default=(0, 0))


@dataclass(frozen=True)
class TotalQuotientNode:
    ring: object
    span: tuple = field(compare=False, default=(0, 0))


@dataclass(frozen=True)
class RegNode:
    span: tuple = field(compare=False, default=(0, 0))


@dataclass(frozen=True)
class FreeNode:
    rank: int
    span: tuple = field(compare=False, default=(0, 0))


@dataclass(frozen=True)
class CyclicNode:
    generators: tuple
    span: tuple = field(compare=False, default=(0, 0))


@dataclass(frozen=True)
class SumNode:
    left: object
    right: object
    span: tuple = field(compare=False, default=(0, 0))


@dataclass(frozen=True)
class HomNode:
    inner: object
    span: tuple = field(compare=False, default=(0, 0))


@dataclass(frozen=True)
class TensorNode:
    module: object
    algebra: object
    span: tuple = field(compare=False, default=(0, 0))


@dataclass(frozen=True)
class AlgebraNode:
    over: object   # ring node for B
    base: object   # ring node for R
    span: tuple = field(compare=False, default=(0, 0))


RING_HEADS = {"Prod", "PolyQuot", "Localize", "TotalQuotient"}
MODULE_HEADS = {"Reg", "Free", "Cyclic", "Sum", "Hom", "Tensor"}


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0

    def peek(self) -> Optional[Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            end = len(self.text)
            raise DslError("unexpected end of input", (end, end))
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.next()
        if tok.kind != kind:
            raise DslError(f"expected {kind!r}, found {tok.text!r}", (tok.start, tok.end))
        return tok

    def done(self):
        tok = self.peek()
        if tok is not None:
            raise DslError(f"trailing input {tok.text!r}", (tok.start, len(self.text)))

    # -- rings

    def ring(self):
        tok = self.expect("name")
        name = tok.text
        if name.startswith("Z") and name[1:].isdigit():
            return ZmodNode(int(name[1:]), span=(tok.start, tok.end))
        if name == "Prod":
            self.expect("(")
            left = self.ring()
            self.expect(",")
            right = self.ring()
            close = self.expect(")")
            return ProdNode(left, right, span=(tok.start, close.end))
        if name == "PolyQuot":
            self.expect("(")
            base = self.ring()
            self.expect(",")
            rel = self.xpoly()
            close = self.expect(")")
            return PolyQuotNode(base, rel.coeffs, span=(tok.start, close.end))
        if name == "Localize":
            self.expect("(")
            ring = self.ring()
            self.expect(",")
            self.expect("{")
            elems = [self.element()]
            while self.peek() and self.peek().kind == ",":
                self.next()
                elems.append(self.element())
            self.expect("}")
            close = self.expect(")")
            return LocalizeNode(ring, tuple(elems), span=(tok.start, close.end))
        if name == "TotalQuotient":
            self.expect("(")
            ring = self.ring()
            close = self.expect(")")
            return TotalQuotientNode(ring, span=(tok.start, close.end))
        raise DslError(f"unknown ring constructor {name!r}", (tok.start, tok.end))

    # -- modules

    def module(self):
        tok = self.expect("name")
        name = tok.text
        if name == "Reg":
            return RegNode(span=(tok.start, tok.end))
        if name == "Free":
            self.expect("(")
            k = self.expect("int")
            close = self.expect(")")
            return FreeNode(int(k.text), span=(tok.start, close.end))
        if name == "Cyclic":
            self.expect("(")
            gens = []
            if self.peek() and self.peek().kind != ")":
                gens.append(self.element())
                while self.peek() and self.peek().kind == ",":
                    self.next()
                    gens.append(self.element())
            close = self.expect(")")
            return CyclicNode(tuple(gens), span=(tok.start, close.end))
        if name == "Sum":
            self.expect("(")
            left = self.module()
            self.expect(",")
            right = self.module()
            close = self.expect(")")
            return SumNode(left, right, span=(tok.start, close.end))
        if name == "Hom":
            self.expect("(")
            inner = self.module()
            close = self.expect(")")
            return HomNode(inner, span=(tok.start, close.end))
        if name == "Tensor":
            self.expect("(")
            inner = self.module()
            self.expect(",")
            alg = self.algebra()
            close = self.expect(")")
            return TensorNode(inner, alg, span=(tok.start, close.end))
        raise DslError(f"unknown module constructor {name!r}", (tok.start, tok.end))

    def algebra(self):
        tok = self.expect("name")
        if tok.text != "Algebra":
            raise DslError(f"expected Algebra(...), found {tok.text!r}", (tok.start, tok.end))
        self.expect("(")
        over = self.ring()
        self.expect(",")
        base = self.ring()
        close = self.expect(")")
        return AlgebraNode(over, base, span=(tok.start, close.end))

    # -- elements

    def element(self):
        tok = self.peek()
        if tok is None:
            end = len(self.text)
            raise DslError("expected an element", (end, end))
        if tok.kind == "(":
            self.next()
            items = [self.element()]
            while self.peek() and self.peek().kind == ",":
                self.next()
                items.append(self.element())
            close = self.expect(")")
            return TupleElem(tuple(items), span=(tok.start, close.end))
        if tok.kind == "int" or (tok.kind == "name" and tok.text == "x"):
            poly = self.xpoly()
            if len(poly.coeffs) == 1:
                return IntElem(poly.coeffs[0], span=poly.span)
            return poly
        raise DslError(f"cannot parse element at {tok.text!r}", (tok.start, tok.end))

    def xpoly(self) -> XPolyElem:
        """Sum of integer-coefficient terms in the lowercase variable x."""
        start_tok = self.peek()
        if start_tok is None:
            end = len(self.text)
            raise DslError("expected a polynomial", (end, end))
        terms = {}
        end = start_tok.end
        while True:
            coeff, exp, end = self._xterm()
            terms[exp] = terms.get(exp, 0) + coeff
            tok = self.peek()
            if tok is not None and tok.kind == "+":
                self.next()
                continue
            break
        degree = max(terms) if terms else 0
        coeffs = tuple(terms.get(k, 0) for k in range(degree + 1))
        return XPolyElem(coeffs, span=(start_tok.start, end))

    def _after_star_is_x(self) -> bool:
        if self.pos + 1 < len(self.tokens):
            tok = self.tokens[self.pos + 1]
            return tok.kind == "name" and tok.text == "x"
        return False

    def _xterm(self):
        tok = self.next()
        if tok.kind == "int":
            coeff = int(tok.text)
            end = tok.end
            nxt = self.peek()
            if nxt is not None and nxt.kind == "*" and self._after_star_is_x():
                self.next()
                exp, end = self._xpow()
                return coeff, exp, end
            return coeff, 0, end
        if tok.kind == "name" and tok.text == "x":
            exp, end = self._xpow_tail(tok)
            return 1, exp, end
        raise DslError(f"cannot parse polynomial term at {tok.text!r}",
                       (tok.start, tok.end))

    def _xpow(self):
        tok = self.expect("name")
        if tok.text != "x":
            raise DslError(f"expected x, found {tok.text!r}", (tok.start, tok.end))
        return self._xpow_tail(tok)

    def _xpow_tail(self, tok):
        nxt = self.peek()
        if nxt is not None and nxt.kind == "^":
            self.next()
            e = self.expect("int")
            return int(e.text), e.end
        return 1, tok.end


def parse_ring(text: str) -> object:
    p = _Parser(text)
    node = p.ring()
    p.done()
    return node


def parse_module(text: str) -> object:
    p = _Parser(text)
    node = p.module()
    p.done()
    return node


def parse_algebra(text: str) -> object:
    p = _Parser(text)
    node = p.algebra()
    p.done()
    return node


def parse_dsl(text: str) -> object:
    """Dispatch on the leading constructor name."""
    tokens = tokenize(text)
    if not tokens:
        raise DslError("empty input", (0, 0))
    head = tokens[0].text
    if head == "Algebra":
        return parse_algebra(text)
    if head in MODULE_HEADS:
        return parse_module(text)
    return parse_ring(text)


# ---------------------------------------------------------------------------
# printing


def _print_elem(node) -> str:
    if isinstance(node, IntElem):
        return str(node.value)
    if isinstance(node, TupleElem):
        return "(" + ",".join(_print_elem(i) for i in node.items) + ")"
    if isinstance(node, XPolyElem):
        return "+".join(reversed(poly_terms(node.coeffs))) or "0"
    raise TypeError(f"not an element node: {node!r}")


def print_node(node) -> str:
    if isinstance(node, ZmodNode):
        return f"Z{node.n}"
    if isinstance(node, ProdNode):
        return f"Prod({print_node(node.left)},{print_node(node.right)})"
    if isinstance(node, PolyQuotNode):
        return f"PolyQuot({print_node(node.base)}, {poly_str(node.relation)})"
    if isinstance(node, LocalizeNode):
        elems = ",".join(_print_elem(e) for e in node.elements)
        return f"Localize({print_node(node.ring)}, {{{elems}}})"
    if isinstance(node, TotalQuotientNode):
        return f"TotalQuotient({print_node(node.ring)})"
    if isinstance(node, RegNode):
        return "Reg"
    if isinstance(node, FreeNode):
        return f"Free({node.rank})"
    if isinstance(node, CyclicNode):
        return "Cyclic(" + ",".join(_print_elem(e) for e in node.generators) + ")"
    if isinstance(node, SumNode):
        return f"Sum({print_node(node.left)},{print_node(node.right)})"
    if isinstance(node, HomNode):
        return f"Hom({print_node(node.inner)})"
    if isinstance(node, TensorNode):
        return f"Tensor({print_node(node.module)}, {print_node(node.algebra)})"
    if isinstance(node, AlgebraNode):
        return f"Algebra({print_node(node.over)}, {print_node(node.base)})"
    if isinstance(node, (IntElem, TupleElem, XPolyElem)):
        return _print_elem(node)
    raise TypeError(f"cannot print {node!r}")


# ---------------------------------------------------------------------------
# building


def resolve_element(node, R: FiniteRing):
    if R.kind == "localized":
        source, to_class = R.parts
        return to_class[resolve_element(node, source)]
    if isinstance(node, IntElem):
        if R.kind == "zmod":
            return node.value % R.size
        if R.kind == "polyquot":
            d = len(R.zero)
            return tuple([node.value % _char_bound(R)] + [0] * (d - 1))
        raise DslError(f"integer element not valid in {R.descriptor}", node.span)
    if isinstance(node, TupleElem):
        if R.kind != "product":
            raise DslError(f"tuple element not valid in {R.descriptor}", node.span)
        if len(node.items) != 2:
            raise DslError("product elements are pairs", node.span)
        left_ring, right_ring = R.parts
        return (resolve_element(node.items[0], left_ring),
                resolve_element(node.items[1], right_ring))
    if isinstance(node, XPolyElem):
        if R.kind != "polyquot":
            raise DslError(f"polynomial element not valid in {R.descriptor}", node.span)
        x = tuple([0, 1] + [0] * (len(R.zero) - 2)) if len(R.zero) >= 2 else None
        if x is None:
            raise DslError("ring has no generator x", node.span)
        out = R.zero
        power = R.one
        for k, c in enumerate(node.coeffs):
            if c:
                const = resolve_element(IntElem(c, node.span), R)
                out = R.add(out, R.mul(const, power))
            power = R.mul(power, x)
        return out
    raise DslError(f"cannot resolve element {node!r}", getattr(node, "span", (0, 0)))


def _char_bound(R: FiniteRing) -> int:
    # additive order of 1 bounds the characteristic
    one, out, k = R.one, R.one, 1
    while out != R.zero:
        out = R.add(out, one)
        k += 1
    return k


def build_ring(spec) -> FiniteRing:
    """make_ring: build a FiniteRing from DSL text or a parsed ring node."""
    node = parse_ring(spec) if isinstance(spec, str) else spec
    if isinstance(node, ZmodNode):
        if node.n < 2:
            raise DslError(f"Z{node.n}: modulus must be >= 2", node.span)
        return Zmod(node.n)
    if isinstance(node, ProdNode):
        return product_ring(build_ring(node.left), build_ring(node.right))
    if isinstance(node, PolyQuotNode):
        base = build_ring(node.base)
        if base.kind != "zmod":
            raise DslError("PolyQuot base must be a Zmod ring", node.span)
        rel = tuple(c % base.size for c in node.relation)
        if len(rel) < 2:
            raise DslError("relation must have degree >= 1", node.span)
        if rel[-1] != 1:
            raise DslError(f"relation {poly_str(node.relation)} is not monic", node.span)
        return poly_quotient(base, rel)
    if isinstance(node, LocalizeNode):
        R = build_ring(node.ring)
        seed = [resolve_element(e, R) for e in node.elements]
        S, enlarged = closed_multiplicative_set(R, seed)
        if enlarged:
            log.warning("multiplicative set %s was closed under multiplication",
                        print_node(node))
        return localize(R, S).structure
    if isinstance(node, TotalQuotientNode):
        return total_quotient(build_ring(node.ring)).structure
    raise DslError(f"not a ring node: {node!r}", getattr(node, "span", (0, 0)))


def build_module(R: FiniteRing, spec) -> FiniteModule:
    """build_module: construct a FiniteModule over R from DSL text or a node."""
    node = parse_module(spec) if isinstance(spec, str) else spec
    if isinstance(node, RegNode):
        return regular_module(R)
    if isinstance(node, FreeNode):
        return free_module(R, node.rank)
    if isinstance(node, CyclicNode):
        gens = [resolve_element(e, R) for e in node.generators]
        return cyclic_module(R, ideal_generated(R, gens))
    if isinstance(node, SumNode):
        return direct_sum(build_module(R, node.left), build_module(R, node.right))
    if isinstance(node, HomNode):
        return hom_module(build_module(R, node.inner))
    if isinstance(node, TensorNode):
        alg = build_algebra(node.algebra)
        if not alg.base.same_ring(R):
            raise DslError(
                f"algebra base {alg.base.descriptor} differs from ring {R.descriptor}",
                node.span)
        return tensor_with_algebra(build_module(R, node.module), alg)
    raise DslError(f"not a module node: {node!r}", getattr(node, "span", (0, 0)))


def build_algebra(spec) -> FiniteAlgebra:
    """Construct a FiniteAlgebra with its canonical structure map."""
    node = parse_algebra(spec) if isinstance(spec, str) else spec
    B = build_ring(node.over)
    R = build_ring(node.base)
    if B.same_ring(R):
        return self_algebra(R)
    if B.kind == "product" and isinstance(node.over, ProdNode):
        left, right = B.parts
        if left.same_ring(R) and right.same_ring(R):
            return diagonal_algebra(R, B)
    if B.kind == "polyquot" and isinstance(node.over, PolyQuotNode):
        base = build_ring(node.over.base)
        if base.same_ring(R):
            return extension_algebra(B, R)
    raise DslError(
        f"no canonical structure map from {R.descriptor} to {B.descriptor}",
        node.span)


# ---------------------------------------------------------------------------
# extension-element literals (uppercase X variables)


def parse_ext(text: str, R: FiniteRing, M: FiniteModule | None = None) -> ExtElement:
    """Parse '2*X^2 + (1,0)*X + 3' or 'series(N; ...)' over R (or over M when
    given, for module-valued cofactors)."""
    p = _Parser(text)
    tok = p.peek()
    precision = None
    variant = "monoid"
    if tok is not None and tok.kind == "name" and tok.text == "series":
        p.next()
        p.expect("(")
        precision = int(p.expect("int").text)
        p.expect(";")
        variant = "series"
    support: dict = {}
    arity = 1
    base = M if M is not None else R
    base_kind = "module" if M is not None else "ring"
    add = base.add if M is not None else R.add
    zero = base.zero
    while True:
        coeff, exp = _parse_ext_term(p, R)
        arity = max(arity, len(exp))
        support.setdefault(exp, [])
        support[exp].append(coeff)
        nxt = p.peek()
        if nxt is not None and nxt.kind == "+":
            p.next()
            continue
        break
    if variant == "series":
        p.expect(")")
    p.done()
    merged = {}
    for exp, coeffs in support.items():
        exp = tuple(list(exp) + [0] * (arity - len(exp)))
        total = zero
        for c in coeffs:
            total = add(total, c)
        if total != zero:
            if exp in merged:
                merged[exp] = add(merged[exp], total)
            else:
                merged[exp] = total
    return make_ext(base_kind, base, merged, variant, arity, precision)


def _parse_ext_term(p: _Parser, R: FiniteRing):
    tok = p.peek()
    if tok is None:
        raise DslError("expected a term", (len(p.text), len(p.text)))
    if tok.kind == "name" and _is_ext_var(tok.text):
        exp = _parse_ext_mono(p)
        return R.one, exp
    coeff_node = p.element()
    coeff = resolve_element(coeff_node, R)
    nxt = p.peek()
    if nxt is not None and nxt.kind == "*":
        p.next()
        exp = _parse_ext_mono(p)
        return coeff, exp
    return coeff, (0,)


def _is_ext_var(name: str) -> bool:
    return name == "X" or (name.startswith("X") and name[1:].isdigit())


def _parse_ext_mono(p: _Parser) -> tuple:
    exps: dict = {}
    while True:
        tok = p.expect("name")
        if not _is_ext_var(tok.text):
            raise DslError(f"expected an X variable, found {tok.text!r}",
                           (tok.start, tok.end))
        index = 0 if tok.text == "X" else int(tok.text[1:]) - 1
        if index < 0:
            raise DslError("X variables are numbered from 1", (tok.start, tok.end))
        e = 1
        nxt = p.peek()
        if nxt is not None and nxt.kind == "^":
            p.next()
            e = int(p.expect("int").text)
        exps[index] = exps.get(index, 0) + e
        nxt = p.peek()
        if nxt is not None and nxt.kind == "*" and _next_is_var(p):
            p.next()
            continue
        break
    arity = max(exps) + 1
    return tuple(exps.get(i, 0) for i in range(arity))


def _next_is_var(p: _Parser) -> bool:
    if p.pos + 1 < len(p.tokens):
        tok = p.tokens[p.pos + 1]
        return tok.kind == "name" and _is_ext_var(tok.text)
    return False
