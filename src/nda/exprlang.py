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
"""

from __future__ import annotations

from dataclasses import dataclass

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

# ASCII only: str.isdigit also takes Unicode digits such as '٣' and '²'
_DIGITS = frozenset("0123456789")
_SINGLE = {"+": PLUS, "-": MINUS, "*": STAR, "(": LPAREN, ")": RPAREN}
_DOUBLE = {"==": EQEQ, "!=": NEQ}
_RELATION_KINDS = {EQEQ: "eq", NEQ: "neq", LT: "lt", MLL: "mll", MLLL: "mlll"}
_BINARY_KINDS = {PLUS: "add", MINUS: "sub", STAR: "mul"}
MAX_DEPTH = 200


@dataclass(frozen=True)
class Token:
    kind: str
    lexeme: str
    position: int  # byte offset into the input


@dataclass(frozen=True)
class Literal:
    value: int | float


@dataclass(frozen=True)
class Binary:
    op: str  # add | sub | mul
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Relation:
    rel: str  # eq | neq | lt | mll | mlll
    left: "Node"
    right: "Node"


Node = Literal | Binary | Relation


def tokenize(text: str) -> list[Token]:
    """Longest-match lexing; '<<<' before '<<' before '<'."""
    tokens: list[Token] = []
    i = 0
    offset = 0  # byte offset of text[i]
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            offset += len(ch.encode("utf-8"))
            continue
        if ch in _DIGITS:
            j = i + 1
            while j < n and text[j] in _DIGITS:
                j += 1
            if j < n and text[j] == "." and j + 1 < n and text[j + 1] in _DIGITS:
                j += 1
                while j < n and text[j] in _DIGITS:
                    j += 1
            lexeme = text[i:j]
            tokens.append(Token(NUMBER, lexeme, offset))
            offset += len(lexeme)
            i = j
            continue
        if ch == "<":
            j = i
            while j < n and j - i < 3 and text[j] == "<":
                j += 1
            lexeme = text[i:j]
            kind = {1: LT, 2: MLL, 3: MLLL}[len(lexeme)]
            tokens.append(Token(kind, lexeme, offset))
            offset += len(lexeme)
            i = j
            continue
        if ch in _SINGLE:
            tokens.append(Token(_SINGLE[ch], ch, offset))
            i += 1
            offset += 1
            continue
        if text[i:i + 2] in _DOUBLE:
            lexeme = text[i:i + 2]
            tokens.append(Token(_DOUBLE[lexeme], lexeme, offset))
            i += 2
            offset += 2
            continue
        raise LexError(f"unknown character {ch!r}", offset)
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.nesting = 0  # open parentheses

    def _peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _end_offset(self) -> int:
        if self.tokens:
            last = self.tokens[-1]
            return last.position + len(last.lexeme.encode("utf-8"))
        return 0

    def _error(self, message: str) -> ParseError:
        tok = self._peek()
        offset = tok.position if tok else self._end_offset()
        where = f"before {tok.lexeme!r}" if tok else "at end of input"
        return ParseError(f"{message} {where}", offset)

    def relation(self) -> Node:
        left = self.expr()
        tok = self._peek()
        if tok is not None and tok.kind in _RELATION_KINDS:
            self.pos += 1
            right = self.expr()
            node: Node = Relation(_RELATION_KINDS[tok.kind], left, right)
        else:
            node = left
        if self._peek() is not None:
            raise self._error("expected end of input")
        return node

    def expr(self) -> Node:
        node = self.term()
        while True:
            tok = self._peek()
            if tok is None or tok.kind not in (PLUS, MINUS):
                return node
            self.pos += 1
            node = Binary(_BINARY_KINDS[tok.kind], node, self.term())

    def term(self) -> Node:
        node = self.factor()
        while True:
            tok = self._peek()
            if tok is None or tok.kind != STAR:
                return node
            self.pos += 1
            node = Binary("mul", node, self.factor())

    def factor(self) -> Node:
        tok = self._peek()
        if tok is None:
            raise self._error("expected a number or '('")
        if tok.kind == NUMBER:
            self.pos += 1
            try:
                value = float(tok.lexeme) if "." in tok.lexeme else int(tok.lexeme)
            except ValueError:  # an int past Python's limit on digits converted from a string
                raise ParseError(f"literal of {len(tok.lexeme)} digits is too long", tok.position) from None
            return Literal(value)
        if tok.kind == LPAREN:
            if self.nesting == MAX_DEPTH:
                raise self._error(f"parentheses nested more than {MAX_DEPTH} deep")
            self.pos += 1
            self.nesting += 1
            node = self.expr()  # relations are not allowed inside parentheses
            self.nesting -= 1
            closing = self._peek()
            if closing is None or closing.kind != RPAREN:
                raise self._error("expected ')'")
            self.pos += 1
            return node
        raise self._error("expected a number or '('")


def parse(tokens: list[Token]) -> Node:
    """Tokens -> Ast; raises ParseError with the byte offset of the offending token."""
    node = _Parser(tokens).relation()
    if len(tokens) > MAX_DEPTH and _depth(node) > MAX_DEPTH:  # a tree has fewer operators than tokens
        raise ParseError(f"expression more than {MAX_DEPTH} operators deep", 0)
    return node


def _depth(node: Node) -> int:
    """Operators on the longest root-to-leaf path, level by level (no recursion)."""
    depth, level = 0, [node]
    while level := [child for n in level if not isinstance(n, Literal) for child in (n.left, n.right)]:
        depth += 1
    return depth


def parse_text(text: str) -> Node:
    return parse(tokenize(text))


def evaluate(node: Node, arith: Arithmetic):
    """Evaluate under an arithmetic: a carrier value, or a bool for a root relation."""
    if isinstance(node, Relation):
        left = _eval_expr(node.left, arith)
        right = _eval_expr(node.right, arith)
        if node.rel == "eq":
            return arith.carrier.index_of(left) == arith.carrier.index_of(right)
        if node.rel == "neq":
            return arith.carrier.index_of(left) != arith.carrier.index_of(right)
        if node.rel == "lt":
            return arith.carrier.index_of(left) < arith.carrier.index_of(right)
        if node.rel == "mll":
            return arith.mll(left, right)
        return arith.mlll(left, right)
    return _eval_expr(node, arith)


def _eval_expr(node: Node, arith: Arithmetic):
    if isinstance(node, Literal):
        # canonicalise through the carrier; off-grid literals are rejected here
        try:
            return arith.carrier.value_at(arith.carrier.index_of(node.value))
        except OffCarrierError:
            raise OffCarrierError(
                f"literal {node.value} is not on carrier {arith.carrier.spec}") from None
    if isinstance(node, Binary):
        left = _eval_expr(node.left, arith)
        right = _eval_expr(node.right, arith)
        if node.op == "add":
            return arith.add(left, right)
        if node.op == "sub":
            return arith.sub(left, right)
        return arith.mul(left, right)
    raise ParseError("relations may only appear at the root", 0)
