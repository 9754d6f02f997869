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
nothing is silently snapped.  Evaluation recurses, so a tree more than
MAX_DEPTH operators deep, or a nesting of parentheses more than MAX_DEPTH
deep, is a ParseError.

Lexing is one compiled regular expression, _LEXEME, whose last branch takes
any other non-blank character, which is then an unknown character.
parse_text is one operator-precedence loop over the lexemes of ``findall``:
it keeps a list of operands and a list of pending operators, and an
operator first reduces every pending one of higher or equal precedence, so
equal precedence folds left.  Relations rank lowest and '(' marks where a
')' stops reducing.  It keeps no byte offsets: only when the loop fails does
_offsets lex the text again for them, and so an unknown character anywhere
raises its LexError before any ParseError.  Nodes are named tuples
and compare as tuples, so ``Literal(1) == (1,)``.
"""

from __future__ import annotations

import re
from operator import length_hint
from typing import NamedTuple

from .arith import Arithmetic
from .errors import LexError, OffCarrierError, ParseError

# ASCII only: [0-9] and not \d, which also takes Unicode digits such as '٣'
_LEXEME = re.compile(r"[-+*()]|[0-9]+(?:\.[0-9]+)?|<{1,3}|==|!=|[^ \t\r\n]")
_DIGITS = frozenset("0123456789")
MAX_DEPTH = 200


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


_OPEN = (-1,)  # the pending-operator mark of an open parenthesis, ranked below every operator
# lexeme -> (precedence, node type, op); relations rank lowest
_OPERATORS = {"+": (1, Binary, "add"), "-": (1, Binary, "sub"), "*": (2, Binary, "mul"),
              "==": (0, Relation, "eq"), "!=": (0, Relation, "neq"), "<": (0, Relation, "lt"),
              "<<": (0, Relation, "mll"), "<<<": (0, Relation, "mlll")}


def _offsets(text: str) -> list[tuple[str, int]]:
    """(lexeme, byte offset) pairs; raises the LexError of the first unknown character.

    Every non-ASCII character is unknown, so a character index before the first is also a byte offset.
    """
    pairs = []
    for match in _LEXEME.finditer(text):
        lexeme, offset = match.group(), match.start()
        if lexeme[0] not in _DIGITS and lexeme not in _OPERATORS and lexeme not in ("(", ")"):
            raise LexError(f"unknown character {lexeme!r}", offset)
        pairs.append((lexeme, offset))
    return pairs


def _error(text: str, left: int, message: str) -> ParseError:
    """message before the lexeme that has left lexemes after it, or at the end of input for left == -1.

    Lexes text again for the offsets, and so raises any unknown character's LexError instead.
    """
    pairs = _offsets(text)
    if left >= 0:
        lexeme, offset = pairs[-1 - left]
        return ParseError(f"{message} before {lexeme!r}", offset)
    lexeme, offset = pairs[-1] if pairs else ("", 0)
    return ParseError(f"{message} at end of input", offset + len(lexeme))


def _depth(node: Node) -> int:
    """Operators on the longest root-to-leaf path, level by level (no recursion)."""
    depth, level = 0, [node]
    while level := [child for n in level if not isinstance(n, Literal) for child in (n.left, n.right)]:
        depth += 1
    return depth


def parse_text(text: str) -> Node:
    """Text -> Ast; raises LexError or ParseError with the byte offset of the offending character or lexeme."""
    lexemes = _LEXEME.findall(text)
    new = tuple.__new__
    operands, pending = [], [_OPEN]  # the text is read as if in parentheses
    push, pop = operands.append, pending.pop
    nesting = relations = 0
    want = True  # an operand comes next
    rest = iter(lexemes)  # length_hint(rest) lexemes follow the one in hand
    for lexeme in rest:
        if want:
            if lexeme[0] in _DIGITS:
                if "." in lexeme:
                    push(new(Literal, (float(lexeme),)))
                else:
                    try:
                        push(new(Literal, (int(lexeme),)))
                    except ValueError:  # an int past Python's limit on digits converted from a string
                        raise ParseError(f"literal of {len(lexeme)} digits is too long",
                                         _offsets(text)[-1 - length_hint(rest)][1]) from None
                want = False
            elif lexeme == "(" and nesting < MAX_DEPTH:
                nesting += 1
                pending.append(_OPEN)
            else:
                raise _error(text, length_hint(rest), f"parentheses nested more than {MAX_DEPTH} deep"
                             if lexeme == "(" else "expected a number or '('")
        elif (op := _OPERATORS.get(lexeme)) is not None and (op[0] or not (nesting or relations)):
            precedence = op[0]
            while pending[-1][0] >= precedence:  # equal precedence reduces, so trees fold left
                top = pop()
                right = operands.pop()
                operands[-1] = new(top[1], (top[2], operands[-1], right))
            relations += not precedence  # a relation only at the root, and only one
            pending.append(op)
            want = True
        elif lexeme == ")" and nesting:
            while (top := pop()) is not _OPEN:
                right = operands.pop()
                operands[-1] = new(top[1], (top[2], operands[-1], right))
            nesting -= 1
        else:
            raise _error(text, length_hint(rest), "expected ')'" if nesting else "expected end of input")
    if want or nesting:
        raise _error(text, -1, "expected a number or '('" if want else "expected ')'")
    while (top := pop()) is not _OPEN:
        right = operands.pop()
        operands[-1] = new(top[1], (top[2], operands[-1], right))
    node = operands[0]
    if len(lexemes) > MAX_DEPTH and _depth(node) > MAX_DEPTH:  # a tree has fewer operators than lexemes
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
