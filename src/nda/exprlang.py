"""A tiny expression language evaluated under a chosen arithmetic.

Grammar (byte offsets in errors, longest-match lexing):

    relation := expr ( ('==' | '!=' | '<' | '<<' | '<<<') expr )?
    expr     := term ( ('+' | '-') term )*        # left-associative
    term     := factor ( '*' factor )*            # left-associative
    factor   := NUMBER | '(' expr ')'
    NUMBER   := [0-9]+ ( '.' [0-9]+ )?

Left associativity is semantic: the arithmetics are generally not
associative, so 1+2+3 means (1+2)+3 and nothing else.  Relations appear
only at the root; '<<' and '<<<' are the absorption relations, '<' is
plain carrier order.  Literals must already lie on the target carrier;
nothing is silently snapped.  Parsing and evaluation recurse, so a tree or
a nesting of parentheses more than MAX_DEPTH deep is a ParseError.

Lexing is one compiled regular expression, _LEXEME, whose last branch takes
any other non-blank character, which is then an unknown character.
parse_text parses the lexemes of ``findall`` by their kinds and builds no
Token: byte offsets are derived, by tokenize, only when an error is raised,
and tokenize raises an unknown character's LexError before any ParseError.
Nodes are named tuples and compare as tuples, so ``Literal(1) == (1,)``.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .arith import Arithmetic
from .errors import LexError, OffCarrierError, ParseError

NUMBER = "number"
PLUS = "plus"
MINUS = "minus"
STAR = "star"
LPAREN = "lparen"
RPAREN = "rparen"
EQEQ = "eqeq"
NEQ = "neq"
LT = "lt"
MLL = "mll"
MLLL = "mlll"

# ASCII only: [0-9] and not \d, which also takes Unicode digits such as '٣'
_LEXEME = re.compile(r"[0-9]+(?:\.[0-9]+)?|<{1,3}|==|!=|[-+*()]|[^ \t\r\n]")
_DIGITS = frozenset("0123456789")
_KINDS = {"+": PLUS, "-": MINUS, "*": STAR, "(": LPAREN, ")": RPAREN, "==": EQEQ, "!=": NEQ,
          "<": LT, "<<": MLL, "<<<": MLLL}  # any other lexeme is a NUMBER or an unknown character
_RELATION_KINDS = {EQEQ: "eq", NEQ: "neq", LT: "lt", MLL: "mll", MLLL: "mlll"}
_ADDITIVE_KINDS = {PLUS: "add", MINUS: "sub"}
MAX_DEPTH = 200


class Token(NamedTuple):
    kind: str
    lexeme: str
    position: int  # byte offset into the input


class Literal(NamedTuple):
    value: int | float


class Binary(NamedTuple):
    op: str  # add | sub | mul
    left: Node
    right: Node


class Relation(NamedTuple):
    rel: str  # eq | neq | lt | mll | mlll
    left: Node
    right: Node


Node = Literal | Binary | Relation


def tokenize(text: str) -> list[Token]:
    """Longest-match lexing; '<<<' before '<<' before '<'.

    Only ASCII is consumed and the first other character raises, so a
    character index into text is also its byte offset.
    """
    tokens = []
    for match in _LEXEME.finditer(text):
        lexeme, position = match.group(), match.start()
        kind = _KINDS.get(lexeme, NUMBER)
        if kind == NUMBER and lexeme[0] not in _DIGITS:
            raise LexError(f"unknown character {lexeme!r}", position)
        tokens.append(Token(kind, lexeme, position))
    return tokens


def _lex(text: str) -> tuple[list[str], list[str | None]]:
    """The lexemes of text and their kinds, then a None past the last; an unknown character is a NUMBER here."""
    lexemes = _LEXEME.findall(text)
    kinds = [_KINDS.get(lexeme, NUMBER) for lexeme in lexemes]
    kinds.append(None)
    return lexemes, kinds


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.lexemes, self.kinds = _lex(text)
        self.pos = 0
        self.nesting = 0  # open parentheses

    def _error(self, message: str) -> ParseError:
        tokens = tokenize(self.text)  # raises the LexError of an unknown character anywhere in text
        if self.pos < len(tokens):
            tok = tokens[self.pos]
            return ParseError(f"{message} before {tok.lexeme!r}", tok.position)
        end = tokens[-1].position + len(tokens[-1].lexeme) if tokens else 0
        return ParseError(f"{message} at end of input", end)

    def relation(self) -> Node:
        node = self.expr()
        rel = _RELATION_KINDS.get(self.kinds[self.pos])
        if rel is not None:
            self.pos += 1
            node = Relation(rel, node, self.expr())
        if self.kinds[self.pos] is not None:
            raise self._error("expected end of input")
        return node

    def expr(self) -> Node:
        node = self.term()
        while (op := _ADDITIVE_KINDS.get(self.kinds[self.pos])) is not None:
            self.pos += 1
            node = Binary(op, node, self.term())
        return node

    def term(self) -> Node:
        node = self.factor()
        while self.kinds[self.pos] == STAR:
            self.pos += 1
            node = Binary("mul", node, self.factor())
        return node

    def factor(self) -> Node:
        pos = self.pos
        kind = self.kinds[pos]
        if kind == NUMBER and self.lexemes[pos][0] in _DIGITS:  # else an unknown character, raised by _error
            lexeme = self.lexemes[pos]
            self.pos = pos + 1
            if "." in lexeme:
                return Literal(float(lexeme))
            try:
                return Literal(int(lexeme))
            except ValueError:  # an int past Python's limit on digits converted from a string
                raise ParseError(f"literal of {len(lexeme)} digits is too long",
                                 tokenize(self.text)[pos].position) from None
        if kind == LPAREN:
            if self.nesting == MAX_DEPTH:
                raise self._error(f"parentheses nested more than {MAX_DEPTH} deep")
            self.pos = pos + 1
            self.nesting += 1
            node = self.expr()  # relations are not allowed inside parentheses
            self.nesting -= 1
            if self.kinds[self.pos] != RPAREN:
                raise self._error("expected ')'")
            self.pos += 1
            return node
        raise self._error("expected a number or '('")


def _depth(node: Node) -> int:
    """Operators on the longest root-to-leaf path, level by level (no recursion)."""
    depth, level = 0, [node]
    while level := [child for n in level if not isinstance(n, Literal) for child in (n.left, n.right)]:
        depth += 1
    return depth


def parse_text(text: str) -> Node:
    """Text -> Ast; raises LexError or ParseError with the byte offset of the offending character or lexeme."""
    parser = _Parser(text)
    node = parser.relation()
    if len(parser.lexemes) > MAX_DEPTH and _depth(node) > MAX_DEPTH:  # a tree has fewer operators than lexemes
        raise ParseError(f"expression more than {MAX_DEPTH} operators deep", 0)
    return node


def evaluate(node: Node, arith: Arithmetic):
    """Evaluate under an arithmetic: a carrier value, or a bool for a root relation.

    Evaluation runs on carrier indices: each literal is located once, operators
    fold through add_index, sub_index and mul_index, relations compare indices,
    and only the root index becomes a value again.
    """
    if not isinstance(node, Relation):
        return arith.carrier.value_at(_index(node, arith))
    a, b = _index(node.left, arith), _index(node.right, arith)
    if node.rel == "eq":
        return a == b
    if node.rel == "neq":
        return a != b
    if node.rel == "lt":
        return a < b
    if node.rel == "mll":  # adding a leaves b unchanged
        return arith.add_index(b, a) == b
    return arith.mul_index(b, a) == b  # mlll: multiplying by a leaves b unchanged


def _index(node: Node, arith: Arithmetic) -> int:
    if isinstance(node, Literal):
        try:  # off-grid literals are rejected here; nothing is snapped
            return arith.carrier.index_of(node.value)
        except OffCarrierError:
            raise OffCarrierError(
                f"literal {node.value} is not on carrier {arith.carrier.spec}") from None
    if isinstance(node, Binary):
        left, right = _index(node.left, arith), _index(node.right, arith)
        if node.op == "add":
            return arith.add_index(left, right)
        if node.op == "sub":
            return arith.sub_index(left, right)
        return arith.mul_index(left, right)
    raise ParseError("relations may only appear at the root", 0)
