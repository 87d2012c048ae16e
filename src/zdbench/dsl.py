"""Construction DSL: parsing and building of rings, modules, algebras, and
extension-element literals.

Grammar (whitespace-insensitive).  Z<digits> and Reg are atoms; every other
head is one row of GRAMMAR, which the parser reads:

    Ring    := Z<digits> | Prod(Ring,Ring) | PolyQuot(Ring, xpoly)
             | Localize(Ring, {elem,...}) | TotalQuotient(Ring)
    Module  := Reg | Free(<k>) | Cyclic(elem,...) | Sum(Module,Module)
             | Hom(Module) | Tensor(Module, Algebra)
    Algebra := Algebra(Ring, Ring)           # canonical structure map
    elem    := <int> | (elem,elem) | xpoly   # xpoly only in PolyQuot rings
    xpoly   := c | x | x^e | c*x | c*x^e, joined by +
    extpoly := term + term + ...             # coefficients times X-monomials
    series  := series(<precision>; extpoly)

The constructions alone write names and the parser alone reads them: every
descriptor and tag they write parses and builds to a structure of that name,
as build_module(R, M.tag).tag == M.tag, which witness revalidation relies on.
"""

from __future__ import annotations

import itertools
import logging
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import BoundExceeded, DslError
from .extensions import (ExtElement, FiniteAlgebra, diagonal_algebra,
                         extension_algebra, make_ext, self_algebra)
from .localize import closed_multiplicative_set, localize, total_quotient
from .modules import (DEFAULT_PRESENTATION_BUDGET, FiniteModule, cyclic_module,
                      direct_sum, free_module, hom_module, regular_module,
                      tensor_with_algebra)
from .rings import FiniteRing, Zmod, ideal_generated, poly_quotient, product_ring

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# tokens

# an int, a name, a symbol, or any other non-space character, which is an
# error; ASCII only, as str.isdigit and str.isalnum also accept digits such as '²'
_TOKEN = re.compile(r"([0-9]+)|([A-Za-z_][A-Za-z0-9_]*)|([(){},+*^;])|(\S)")


class Token(NamedTuple):
    kind: str          # "name" | "int" | symbol itself
    text: str
    start: int
    end: int


def tokenize(text: str) -> list[Token]:
    tokens = []
    for m in _TOKEN.finditer(text):
        word, group = m.group(), m.lastindex
        if group == 4:
            raise DslError(f"unexpected character {word!r}", m.span())
        # a symbol is its own kind
        tokens.append(Token(("int", "name", word)[group - 1], word, *m.span()))
    return tokens


# ---------------------------------------------------------------------------
# AST nodes


@dataclass(frozen=True, kw_only=True)
class Node:
    """A parsed node: its source span (start, end), keyword-only and never
    compared, then the fields of its class."""
    span: tuple = field(compare=False, default=(0, 0))


@dataclass(frozen=True)
class IntElem(Node):
    value: int


@dataclass(frozen=True)
class TupleElem(Node):
    items: tuple


@dataclass(frozen=True)
class XPolyElem(Node):
    coeffs: tuple  # dense, constant term first


@dataclass(frozen=True)
class ZmodNode(Node):
    n: int


@dataclass(frozen=True)
class ProdNode(Node):
    left: object
    right: object


@dataclass(frozen=True)
class PolyQuotNode(Node):
    base: object
    relation: tuple  # dense coefficients, constant term first


@dataclass(frozen=True)
class LocalizeNode(Node):
    ring: object
    elements: tuple


@dataclass(frozen=True)
class TotalQuotientNode(Node):
    ring: object


@dataclass(frozen=True)
class RegNode(Node):
    pass


@dataclass(frozen=True)
class FreeNode(Node):
    rank: int


@dataclass(frozen=True)
class CyclicNode(Node):
    generators: tuple


@dataclass(frozen=True)
class SumNode(Node):
    left: object
    right: object


@dataclass(frozen=True)
class HomNode(Node):
    inner: object


@dataclass(frozen=True)
class TensorNode(Node):
    module: object
    algebra: object


@dataclass(frozen=True)
class AlgebraNode(Node):
    over: object   # ring node for B
    base: object   # ring node for R


# ---------------------------------------------------------------------------
# the grammar, read by the parser
#
# Z<n> (a ring) and Reg (a module) are the only atoms; every other ring,
# module or algebra is a head from GRAMMAR applied to parenthesized
# arguments, which fill the node class's fields in order.


class Rule(NamedTuple):
    sort: str      # "ring" | "module" | "algebra"
    cls: type      # node class; its fields after span take the arguments
    args: tuple    # argument sorts, keys of _ARGUMENTS


GRAMMAR = {
    "Prod": Rule("ring", ProdNode, ("ring", "ring")),
    "PolyQuot": Rule("ring", PolyQuotNode, ("ring", "xpoly")),
    "Localize": Rule("ring", LocalizeNode, ("ring", "set")),
    "TotalQuotient": Rule("ring", TotalQuotientNode, ("ring",)),
    "Free": Rule("module", FreeNode, ("int",)),
    "Cyclic": Rule("module", CyclicNode, ("elems",)),
    "Sum": Rule("module", SumNode, ("module", "module")),
    "Hom": Rule("module", HomNode, ("module",)),
    "Tensor": Rule("module", TensorNode, ("module", "algebra")),
    "Algebra": Rule("algebra", AlgebraNode, ("ring", "ring")),
}

_UNKNOWN_HEAD = {"ring": "unknown ring constructor {!r}",
                 "module": "unknown module constructor {!r}",
                 "algebra": "expected Algebra(...), found {!r}"}


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0

    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def at(self, kind: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.kind == kind

    def end_error(self, message: str) -> DslError:
        end = len(self.text)
        return DslError(message, (end, end))

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise self.end_error("unexpected end of input")
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

    def node(self, sort: str):
        """A ring, module or algebra: an atom, or a GRAMMAR head of `sort`
        with its arguments."""
        tok = self.expect("name")
        head, span = tok.text, (tok.start, tok.end)
        if sort == "ring" and head.startswith("Z") and head[1:].isdigit():
            return ZmodNode(int(head[1:]), span=span)
        if sort == "module" and head == "Reg":
            return RegNode(span=span)
        rule = GRAMMAR.get(head)
        if rule is None or rule.sort != sort:
            raise DslError(_UNKNOWN_HEAD[sort].format(head), span)
        self.expect("(")
        args = []
        for i, arg in enumerate(rule.args):
            if i:
                self.expect(",")
            args.append(_ARGUMENTS[arg](self))
        close = self.expect(")")
        return rule.cls(*args, span=(tok.start, close.end))

    def repeated(self, read, sep: str) -> list:
        """read(), then read() again after each `sep`."""
        items = [read()]
        while self.at(sep):
            self.next()
            items.append(read())
        return items

    # -- elements

    def elements(self) -> tuple:
        """One or more elements, comma-separated."""
        return tuple(self.repeated(self.element, ","))

    def delimited(self, open_kind: str, close_kind: str) -> tuple:
        """open, one or more elements, close: (the elements, the close token)."""
        self.expect(open_kind)
        items = self.elements()
        return items, self.expect(close_kind)

    def element_list(self) -> tuple:
        """Zero or more elements, up to the closing parenthesis."""
        return self.elements() if self.peek() and not self.at(")") else ()

    def element(self):
        tok = self.peek()
        if tok is None:
            raise self.end_error("expected an element")
        if tok.kind == "(":
            items, close = self.delimited("(", ")")
            return TupleElem(items, span=(tok.start, close.end))
        if tok.kind == "int" or (tok.kind == "name" and _is_x(tok.text)):
            poly = self.xpoly()
            if len(poly.coeffs) == 1:
                return IntElem(poly.coeffs[0], span=poly.span)
            return poly
        raise DslError(f"cannot parse element at {tok.text!r}", (tok.start, tok.end))

    def xpoly(self) -> XPolyElem:
        """Sum of integer-coefficient terms in the lowercase variable x, with
        zero coefficients above the leading one dropped."""
        start_tok = self.peek()
        if start_tok is None:
            raise self.end_error("expected a polynomial")
        terms = {}
        for coeff, exp, end in self.repeated(self._xterm, "+"):
            terms[exp] = terms.get(exp, 0) + coeff
        degree = max((k for k, c in terms.items() if c), default=0)
        coeffs = tuple(terms.get(k, 0) for k in range(degree + 1))
        return XPolyElem(coeffs, span=(start_tok.start, end))

    def _xterm(self):
        """c, x^e or c*x^e (^e optional): (coefficient, exponent, end)."""
        tok = self.next()
        coeff = 1
        if tok.kind == "int":
            coeff = int(tok.text)
            if not self.star_var(_is_x):
                return coeff, 0, tok.end
            self.next()        # the '*'
            tok = self.next()  # the x
        elif not (tok.kind == "name" and _is_x(tok.text)):
            raise DslError(f"cannot parse polynomial term at {tok.text!r}",
                           (tok.start, tok.end))
        return (coeff, *self.power(tok))

    # -- variables, shared by x-polynomials and X-literals

    def power(self, var: Token) -> tuple:
        """The optional ^e after the variable token `var`: (e, end)."""
        if self.at("^"):
            self.next()
            e = self.expect("int")
            return int(e.text), e.end
        return 1, var.end

    def star_var(self, is_var) -> bool:
        """Whether '*' and then a variable name accepted by `is_var` come next."""
        ahead = self.tokens[self.pos:self.pos + 2]
        return (len(ahead) == 2 and ahead[0].kind == "*"
                and ahead[1].kind == "name" and is_var(ahead[1].text))


def _is_x(name: str) -> bool:
    return name == "x"


def _parse(text: str, sort: str) -> object:
    p = _Parser(text)
    node = p.node(sort)
    p.done()
    return node


def parse_ring(text: str) -> object:
    return _parse(text, "ring")


def parse_module(text: str) -> object:
    return _parse(text, "module")


def parse_algebra(text: str) -> object:
    return _parse(text, "algebra")


# each argument sort's reader, called on the parser
_ARGUMENTS = {
    "ring": lambda p: p.node("ring"),
    "module": lambda p: p.node("module"),
    "algebra": lambda p: p.node("algebra"),
    "int": lambda p: int(p.expect("int").text),
    "xpoly": lambda p: p.xpoly().coeffs,
    "set": lambda p: p.delimited("{", "}")[0],
    "elems": _Parser.element_list,
}


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
            return tuple([node.value % R.parts[0].size] + [0] * (len(R.zero) - 1))
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
        out = R.zero
        for c in reversed(node.coeffs):  # Horner, at the class of x
            out = R.add(R.mul(out, R.parts[1]), resolve_element(IntElem(c, span=node.span), R))
        return out
    raise DslError(f"cannot resolve element {node!r}", getattr(node, "span", (0, 0)))


@contextmanager
def _errors_at(node):
    """Pass a constructor's ValueError on as a DslError at `node`'s span, as
    the constructors check their own input; an inner DslError keeps its span."""
    try:
        yield
    except DslError:
        raise
    except ValueError as exc:
        raise DslError(str(exc), node.span) from None


def build_ring(spec) -> FiniteRing:
    """Build a FiniteRing from DSL text or a parsed ring node."""
    node = parse_ring(spec) if isinstance(spec, str) else spec
    with _errors_at(node):
        if isinstance(node, ZmodNode):
            _check_size(f"Z{node.n}", (node.n,))
            return Zmod(node.n)
        if isinstance(node, ProdNode):
            A, B = build_ring(node.left), build_ring(node.right)
            _check_size(f"Prod({A.descriptor},{B.descriptor}): |A|*|B|", (A.size, B.size))
            return product_ring(A, B)
        if isinstance(node, PolyQuotNode):
            base, d = build_ring(node.base), len(node.relation) - 1
            _check_size(f"PolyQuot: |{base.descriptor}|^{d}", itertools.repeat(base.size, d))
            return poly_quotient(base, node.relation)
        if isinstance(node, LocalizeNode):
            R = build_ring(node.ring)
            seed = [resolve_element(e, R) for e in node.elements]
            S, enlarged = closed_multiplicative_set(R, seed)
            if enlarged:
                log.warning("multiplicative set of %s was closed under multiplication to %s",
                            R.descriptor, S.display())
            return localize(R, S).structure
        if isinstance(node, TotalQuotientNode):
            return total_quotient(build_ring(node.ring)).structure
    raise DslError(f"not a ring node: {node!r}", getattr(node, "span", (0, 0)))


def build_module(R: FiniteRing, spec) -> FiniteModule:
    """build_module: construct a FiniteModule over R from DSL text or a node."""
    node = parse_module(spec) if isinstance(spec, str) else spec
    with _errors_at(node):
        if isinstance(node, RegNode):
            return regular_module(R)
        if isinstance(node, FreeNode):
            _check_size(f"Free({node.rank}): |R|^{node.rank}", itertools.repeat(R.size, node.rank))
            return free_module(R, node.rank)
        if isinstance(node, CyclicNode):
            gens = [resolve_element(e, R) for e in node.generators]
            return cyclic_module(R, ideal_generated(R, gens))
        if isinstance(node, SumNode):
            A, B = build_module(R, node.left), build_module(R, node.right)
            _check_size(f"Sum({A.tag},{B.tag}): |A|*|B|", (A.size, B.size))
            return direct_sum(A, B)
        if isinstance(node, HomNode):
            return hom_module(build_module(R, node.inner))
        if isinstance(node, TensorNode):
            # the algebra first, so its errors come before the module's
            alg = build_algebra(node.algebra)
            return tensor_with_algebra(build_module(R, node.module), alg)
    raise DslError(f"not a module node: {node!r}", getattr(node, "span", (0, 0)))


def _check_size(what: str, factors) -> None:
    """Refuse, before building it, a ring or module whose carrier has the
    product of `factors` elements when that passes DEFAULT_PRESENTATION_BUDGET;
    the product stops growing at the first factor that passes it."""
    size = 1
    for n in factors:
        size *= n
        if size > DEFAULT_PRESENTATION_BUDGET:
            raise BoundExceeded(f"{what} exceeds budget {DEFAULT_PRESENTATION_BUDGET}")


def build_algebra(spec) -> FiniteAlgebra:
    """Construct a FiniteAlgebra with its canonical structure map."""
    node = parse_algebra(spec) if isinstance(spec, str) else spec
    B = build_ring(node.over)
    R = build_ring(node.base)
    if B.same_ring(R):
        return self_algebra(R)
    if B.kind == "product" and all(A.same_ring(R) for A in B.parts):
        return diagonal_algebra(R, B)
    if B.kind == "polyquot" and B.parts[0].same_ring(R):
        return extension_algebra(B, R)
    raise DslError(
        f"no canonical structure map from {R.descriptor} to {B.descriptor}",
        node.span)


# ---------------------------------------------------------------------------
# extension-element literals (uppercase X variables)


def parse_ext(text: str, R: FiniteRing, M: FiniteModule | None = None,
              arity: int = 1) -> ExtElement:
    """Parse '2*X^2 + (1,0)*X + 3' or 'series(N; ...)' over R (or over M when
    given, for module-valued cofactors), in at least `arity` variables."""
    p = _Parser(text)
    precision = None
    variant = "monoid"
    if p.at("name") and p.peek().text == "series":
        p.next()
        p.expect("(")
        precision = int(p.expect("int").text)
        p.expect(";")
        variant = "series"
    terms = p.repeated(lambda: _parse_ext_term(p, R), "+")
    if variant == "series":
        p.expect(")")
    p.done()
    base = R if M is None else M
    arity = max(arity, *(len(exp) for _, exp in terms))
    support: dict = {}
    for coeff, exp in terms:
        exp += (0,) * (arity - len(exp))
        support[exp] = base.add(support.get(exp, base.zero), coeff)
    return make_ext(base, support, variant, arity, precision)


def _parse_ext_term(p: _Parser, R: FiniteRing):
    tok = p.peek()
    if tok is None:
        raise p.end_error("expected a term")
    if tok.kind == "name" and _is_ext_var(tok.text):
        return R.one, _parse_ext_mono(p)
    coeff = resolve_element(p.element(), R)
    if p.at("*"):
        p.next()
        return coeff, _parse_ext_mono(p)
    return coeff, (0,)


def _is_ext_var(name: str) -> bool:
    return name == "X" or (name.startswith("X") and name[1:].isdigit())


def _parse_ext_mono(p: _Parser) -> tuple:
    """X-variables joined by '*', each with an optional ^e: an exponent tuple."""
    exps: dict = {}
    while True:
        tok = p.expect("name")
        if not _is_ext_var(tok.text):
            raise DslError(f"expected an X variable, found {tok.text!r}",
                           (tok.start, tok.end))
        index = 0 if tok.text == "X" else int(tok.text[1:]) - 1
        if index < 0:
            raise DslError("X variables are numbered from 1", (tok.start, tok.end))
        e, _ = p.power(tok)
        exps[index] = exps.get(index, 0) + e
        if not p.star_var(_is_ext_var):
            break
        p.next()
    return tuple(exps.get(i, 0) for i in range(max(exps) + 1))
