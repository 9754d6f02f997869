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
    """Longest-match lexing; '<<<' before '<<' before '<'.

    Only ASCII is consumed and the first other character raises, so a
    character index into text is also its byte offset.
    """
    tokens: list[Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
        elif ch in _DIGITS:
            j = i + 1
            while j < n and text[j] in _DIGITS:
                j += 1
            if j < n and text[j] == "." and j + 1 < n and text[j + 1] in _DIGITS:
                j += 1
                while j < n and text[j] in _DIGITS:
                    j += 1
            tokens.append(Token(NUMBER, text[i:j], i))
            i = j
        elif ch == "<":
            j = i
            while j < n and j - i < 3 and text[j] == "<":
                j += 1
            tokens.append(Token({1: LT, 2: MLL, 3: MLLL}[j - i], text[i:j], i))
            i = j
        elif ch in _SINGLE:
            tokens.append(Token(_SINGLE[ch], ch, i))
            i += 1
        elif (lexeme := text[i:i + 2]) in _DOUBLE:
            tokens.append(Token(_DOUBLE[lexeme], lexeme, i))
            i += 2
        else:
            raise LexError(f"unknown character {ch!r}", i)
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.nesting = 0  # open parentheses

    def _peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _error(self, message: str) -> ParseError:
        tok = self._peek()
        if tok is not None:
            return ParseError(f"{message} before {tok.lexeme!r}", tok.position)
        end = self.tokens[-1].position + len(self.tokens[-1].lexeme) if self.tokens else 0
        return ParseError(f"{message} at end of input", end)

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
