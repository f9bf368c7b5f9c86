"""Parsing and evaluation of the group-expression language.

The language names finite groups built from a few constructors:

    Z8                    cyclic group of order 8
    D6                    dihedral group of order 12
    Hol 8                 holomorph of the cyclic group of order 8
    Z2 x D4               direct product (left-associative)
    Z8 : Z2 [r^3]         semidirect product where the generator of the
                          right-hand cyclic factor acts on the left factor
                          by r -> r^3
    Z8 : Z2 [#1]          semidirect product using action number 1 from
                          the deterministic enumeration of actions()
    (Z2 x D4) : Z2 [#0]   parentheses group subexpressions

Whitespace between tokens is ignored.  ":" binds tighter than "x", and
both operators associate to the left, so "Z3 x Z8 : Z2 [r^3]" is the
direct product of Z3 with the semidirect product.  The "[r^i]" action
form requires cyclic groups on both sides of ":"; "[#j]" works for any
operands and indexes the deterministic enumeration of all actions, which
is stable for a given version of this package but not across versions.

Syntax errors carry the character offset and the set of tokens that
would have been accepted there.  Semantic errors (an action index out of
range; for "[r^i]", the ValueError of construct.power_action) are only
detected when the expression is evaluated to a table.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, fields
from itertools import chain, count
from typing import Iterator, NoReturn, Union

from .construct import (
    Action, _check_hol_size, _check_size, actions, cyclic, dihedral, direct_product, holomorph,
    power_action, semidirect)
from .core import DEFAULT_SIZE_CAP, GroupTable


class ExprError(Exception):
    """Base class for group-expression failures."""


class ExprSyntaxError(ExprError):
    """The text does not match the expression grammar.

    Attributes:
        position: character offset of the first offending character.
        expected: the tokens that would have been accepted at that offset.
        found: display form of what was actually there.
    """

    def __init__(self, position: int, expected: tuple[str, ...], found: str):
        self.position = position
        self.expected = tuple(expected)
        self.found = found
        want = " or ".join(expected)
        super().__init__(f"at offset {position}: expected {want}, found {found}")


class ExprEvalError(ExprError):
    """A well-formed expression names an impossible construction."""


@dataclass(frozen=True)
class Cyclic:
    n: int


@dataclass(frozen=True)
class Dihedral:
    n: int


@dataclass(frozen=True)
class Holomorph:
    n: int


class _Operator:
    """repr, == and hash of Product and Semidirect from one walk with an
    explicit stack: the dataclass versions recurse once per node, so a chain
    of 1,200 operators, which parses and evaluates, would overflow the stack."""

    def _tokens(self) -> tuple:
        """The pieces of the dataclass-style repr, leaves as objects; equal
        tokens mean equal trees, as the text around the leaves is the tree."""
        out, todo = [], [self]
        while todo:
            e = todo.pop()
            if isinstance(e, _Operator):
                todo += reversed([f"{type(e).__name__}(", *chain.from_iterable(
                    (", " * (i > 0) + f.name + "=", getattr(e, f.name))
                    for i, f in enumerate(fields(e))), ")"])
            else:
                out.append(e)
        return tuple(out)

    def __eq__(self, other):
        return isinstance(other, _Operator) and self._tokens() == other._tokens()

    def __hash__(self):
        return hash(self._tokens())

    def __repr__(self):
        return "".join(t if isinstance(t, str) else repr(t) for t in self._tokens())


@dataclass(frozen=True, eq=False, repr=False)
class Product(_Operator):
    left: "GroupExpr"
    right: "GroupExpr"


@dataclass(frozen=True)
class CyclicPower:
    """Action spec [r^i]: the generator of cyclic H sends r to r^i in K."""

    i: int


@dataclass(frozen=True)
class Index:
    """Action spec [#j]: the j-th action in the actions() enumeration."""

    j: int


ActionSpec = Union[CyclicPower, Index]


@dataclass(frozen=True, eq=False, repr=False)
class Semidirect(_Operator):
    k_expr: "GroupExpr"
    h_expr: "GroupExpr"
    action: ActionSpec


GroupExpr = Union[Cyclic, Dihedral, Holomorph, Product, Semidirect]

MAX_NESTING_DEPTH = 64

# every token kind, in the order a syntax error lists them; each kind but INT is its own text
_KINDS = ("Z", "D", "Hol", "r^", "INT", "x", ":", "[", "]", "(", ")", "#")
_LEAVES = {"Z": Cyclic, "D": Dihedral, "Hol": Holomorph}
_ACTIONS = {"r^": CyclicPower, "#": Index}


def _show(kind: str) -> str:
    """How a syntax error names a token kind."""
    return {"INT": "integer", "EOF": "end of input"}.get(kind, f"'{kind}'")


@dataclass(frozen=True)
class _Token:
    kind: str
    value: int
    position: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    end = len(text)
    while i < end:
        if text[i].isspace():
            i += 1
        elif text[i].isdecimal():  # the digits int() accepts, Arabic-Indic ones too
            start = i
            while i < end and text[i].isdecimal():
                i += 1
            try:
                value = int(text[start:i])
            except ValueError:  # more digits than sys.get_int_max_str_digits()
                raise ExprSyntaxError(
                    start, (f"integer of at most {sys.get_int_max_str_digits()} digits",),
                    f"{i - start} digits") from None
            tokens.append(_Token("INT", value, start))
        else:
            kind = next((k for k in _KINDS if k != "INT" and text.startswith(k, i)), None)
            if kind is None:
                raise ExprSyntaxError(i, tuple(map(_show, _KINDS)), repr(text[i]))
            tokens.append(_Token(kind, 0, i))
            i += len(kind)
    tokens.append(_Token("EOF", 0, end))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def fail(self, kinds: tuple[str, ...]) -> NoReturn:
        token = self.peek()
        found = f"'{token.value}'" if token.kind == "INT" else _show(token.kind)
        raise ExprSyntaxError(token.position, tuple(map(_show, kinds)), found)

    def expect(self, kind: str, kinds: tuple[str, ...] | None = None) -> _Token:
        if self.peek().kind != kind:
            self.fail(kinds or (kind,))
        return self.advance()

    def parse(self) -> GroupExpr:
        node = self.expr()
        self.expect("EOF", ("x", ":", "EOF"))
        return node

    def expr(self) -> GroupExpr:
        node = self.atom()
        while self.peek().kind == "x":
            self.advance()
            node = Product(node, self.atom())
        return node

    def atom(self) -> GroupExpr:
        node = self.primary()
        while self.peek().kind == ":":
            self.advance()
            right = self.primary()
            self.expect("[")
            make = _ACTIONS.get(self.peek().kind)
            if make is None:
                self.fail(tuple(_ACTIONS))
            self.advance()
            node = Semidirect(node, right, make(self.integer()))
            self.expect("]")
        return node

    def primary(self) -> GroupExpr:
        token = self.peek()
        if token.kind in _LEAVES:
            self.advance()
            return _LEAVES[token.kind](self.integer(positive=True))
        if token.kind == "(":
            if self.depth >= MAX_NESTING_DEPTH:
                raise ExprSyntaxError(
                    token.position,
                    ("nesting no deeper than %d parentheses" % MAX_NESTING_DEPTH,),
                    "'('",
                )
            self.depth += 1
            self.advance()
            node = self.expr()
            self.expect(")", ("x", ":", ")"))
            self.depth -= 1
            return node
        self.fail((*_LEAVES, "("))

    def integer(self, positive: bool = False) -> int:
        token = self.expect("INT")
        if positive and token.value < 1:
            raise ExprSyntaxError(token.position, ("positive integer",), f"'{token.value}'")
        return token.value


def parse_expr(text: str) -> GroupExpr:
    """Parse expression text into a GroupExpr tree.

    Raises ExprSyntaxError, carrying the character offset and the set of
    acceptable tokens, on anything outside the grammar.
    """
    return _Parser(text).parse()


def _resolve_action(e: Semidirect, k_table: GroupTable, h_table: GroupTable) -> Action:
    spec = e.action
    if isinstance(spec, CyclicPower):
        if not (isinstance(e.k_expr, Cyclic) and isinstance(e.h_expr, Cyclic)):
            raise ExprEvalError(
                "the r^i action form needs cyclic groups on both sides of ':'; "
                "use [#j] to pick an action for other operands"
            )
        try:
            return power_action(h_table, k_table, spec.i)
        except ValueError as exc:
            raise ExprEvalError(str(exc)) from None
    choices = actions(h_table, k_table)
    if not 0 <= spec.j < len(choices):
        raise ExprEvalError(
            f"action #{spec.j} is out of range: these operands admit "
            f"{len(choices)} actions (#0 through #{len(choices) - 1})")
    return choices[spec.j]


def _eval(e: GroupExpr, names: Iterator[str], size_cap: int) -> GroupTable:
    # a left-nested chain of x and : is walked in a loop, so its length costs no stack
    spine: list[Union[Product, Semidirect]] = []
    while isinstance(e, (Product, Semidirect)):
        spine.append(e)
        e = e.left if isinstance(e, Product) else e.k_expr
    if isinstance(e, Cyclic):
        table = cyclic(e.n, next(names), size_cap=size_cap)
    elif isinstance(e, Dihedral):
        table = dihedral(e.n, size_cap=size_cap)
    else:  # a Holomorph: eval_expr's _order refuses any other leaf
        table = holomorph(e.n, size_cap=size_cap)
    for node in reversed(spine):
        if isinstance(node, Product):
            table = direct_product(table, _eval(node.right, names, size_cap), size_cap=size_cap)
        else:
            h_table = _eval(node.h_expr, names, size_cap)
            table = semidirect(table, h_table, _resolve_action(node, table, h_table),
                               size_cap=size_cap)
    return table


def _order(e: GroupExpr, size_cap: int) -> int:
    """|G| for the group e names, from its leaves: Z n has n elements, D n 2n,
    Hol n n*phi(n), and x and : multiply. A Hol n leaf past size_cap is
    refused before phi(n) factors n (_check_hol_size): every leaf's order
    divides |G|."""
    order, todo = 1, [e]
    for e in todo:  # list iterators see nodes appended while they run
        if isinstance(e, (Product, Semidirect)):
            todo += (e.left, e.right) if isinstance(e, Product) else (e.k_expr, e.h_expr)
        elif isinstance(e, Holomorph):
            order *= _check_hol_size(e.n, size_cap)
        elif isinstance(e, (Cyclic, Dihedral)):
            order *= (1 + isinstance(e, Dihedral)) * e.n
        else:
            raise TypeError(f"not a group expression: {e!r}")
    return order


def eval_expr(e: GroupExpr, size_cap: int = DEFAULT_SIZE_CAP) -> GroupTable:
    """Build the multiplication table named by a parsed expression.

    Cyclic leaves receive generator letters in parse order: r through w,
    then g7, g8 and so on.
    Raises ExprEvalError for impossible actions and SizeCapError when a
    construction would exceed size_cap. The order of the whole tree is
    checked before any table is built; every subtree's order divides it.
    """
    _check_size(_order(e, size_cap), size_cap)
    return _eval(e, chain("rstuvw", map("g{}".format, count(7))), size_cap)


def parse_and_eval(text: str, size_cap: int = DEFAULT_SIZE_CAP) -> GroupTable:
    """Convenience wrapper: parse the text and evaluate it to a table."""
    return eval_expr(parse_expr(text), size_cap)
