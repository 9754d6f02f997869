"""Independent oracles for the tests.

Everything here deliberately avoids the package's memo/bisect machinery:
f is evaluated directly with math (mpmath for artanh), the carrier search
is a linear scan, and law scans are plain nested loops.  Slow, obviously
correct, and only ever used on small ranges.
"""

from __future__ import annotations

import functools
import math
import re

import mpmath


def f_values(name: str, points: int) -> list:
    """Direct evaluation of a built-in f over integer carrier indices 0..points-1."""
    if name == "id":
        return list(range(points))
    if name == "pow:2":
        return [v * v for v in range(points)]
    if name.startswith("pow:"):
        return [math.pow(v, float(name[4:])) for v in range(points)]
    if name == "exp2m1":
        return [(1 << v) - 1 for v in range(points)]
    if name == "quad":
        return [(v + v * v) // 2 for v in range(points)]
    raise ValueError(name)


def atanh_values(c: float, step: float, points: int) -> list:
    """artanh(v/c) at grid points v = i*step through mpmath at 40 digits; +inf from v = c on."""
    values = []
    for i in range(points):
        v = i * step
        if v >= c:
            values.append(math.inf)
            continue
        with mpmath.workdps(40):
            values.append(float(mpmath.atanh(mpmath.mpf(v) / mpmath.mpf(c))))
    return values


def floor_index(fvals: list, target) -> int:
    """Greatest index with fvals[i] <= target, by linear scan."""
    best = 0
    for i, value in enumerate(fvals):
        if value <= target:
            best = i
        else:
            break
    return best


def ceil_index(fvals: list, target) -> int | None:
    """Least index with fvals[i] >= target, or None (exhausted), by linear scan."""
    for i, value in enumerate(fvals):
        if value >= target:
            return i
    return None


def ref_add(fvals: list, kind: str, i: int, j: int) -> int:
    """Saturating reference addition on carrier indices."""
    target = fvals[i] + fvals[j]
    if kind == "projective":
        return floor_index(fvals, target)
    k = ceil_index(fvals, target)
    return len(fvals) - 1 if k is None else k


def ref_sub(fvals: list, kind: str, i: int, j: int) -> int:
    """Reference subtraction on indices: the target f(a) - f(b) clamps at 0, and f(b) = +inf gives 0."""
    fa, fb = fvals[i], fvals[j]
    target = 0 if math.isinf(fb) else max(fa - fb, 0)
    if kind == "projective":
        return floor_index(fvals, target)
    return ceil_index(fvals, target)  # target <= f(a): never past the top


def ref_mul(fvals: list, kind: str, i: int, j: int) -> int:
    fa, fb = fvals[i], fvals[j]
    target = 0 if (fa == 0 or fb == 0) else fa * fb
    if kind == "projective":
        return floor_index(fvals, target)
    k = ceil_index(fvals, target)
    return len(fvals) - 1 if k is None else k


def smallest_witness(violations: list[tuple]) -> tuple | None:
    """Minimal counterexample: smallest max component, then lexicographic."""
    if not violations:
        return None
    return min(violations, key=lambda t: (max(t), t))


def ref_archimedean(fvals: list, kind: str, upper: int) -> tuple:
    """(m, fixed point) of the least m in 1..upper whose sums stop below upper, or None.

    Each orbit m, m + m, ... is iterated with ref_add until it stops moving,
    which every orbit does, at the latest at the top.
    """
    for m in range(1, upper + 1):
        s = m
        while ref_add(fvals, kind, s, m) != s:
            s = ref_add(fvals, kind, s, m)
        if s < upper:
            return m, s
    return None


def ref_least_absorption(fvals: list, kind: str, upper: int) -> tuple | None:
    """Least (a, b) with a > 0, b < upper and b + a = b, by nested loops.

    Least means smallest max(a, b), then smallest b, then smallest a.
    """
    cells = [(b, a) for b in range(upper) for a in range(1, upper + 1) if ref_add(fvals, kind, b, a) == b]
    least = smallest_witness(cells)
    return least and least[::-1]


@functools.cache
def _recursive_descent():
    """(exprlang.parse_text as the recursive-descent parser it once was, its offset lexer).

    Its lexer, kinds and depth count are its own: it takes only the node types
    and MAX_DEPTH from exprlang.  Built on first use: the benchmark imports this
    module without nda on its path.
    """
    from nda.errors import LexError, ParseError
    from nda.exprlang import MAX_DEPTH, Binary, Literal, Node, Relation

    _LEXEME = re.compile(r"[0-9]+(?:\.[0-9]+)?|<{1,3}|==|!=|[-+*()]|[^ \t\r\n]")  # its own order of branches
    _KINDS = {"+": "plus", "-": "minus", "*": "star", "(": "lparen", ")": "rparen", "==": "eqeq", "!=": "neq",
              "<": "lt", "<<": "mll", "<<<": "mlll"}
    _RELATION_KINDS = {"eqeq": "eq", "neq": "neq", "lt": "lt", "mll": "mll", "mlll": "mlll"}
    _ADDITIVE_KINDS = {"plus": "add", "minus": "sub"}

    def _kind(lexeme: str) -> str:
        return _KINDS.get(lexeme) or ("number" if lexeme[0] in "0123456789" else "unknown")

    def _lex(text: str) -> tuple[list[str], list[str | None]]:
        """The lexemes of text and their kinds, then a None past the last."""
        lexemes = _LEXEME.findall(text)
        kinds = [_kind(lexeme) for lexeme in lexemes]
        kinds.append(None)
        return lexemes, kinds

    def _offsets(text: str) -> list[tuple[str, int]]:
        """(lexeme, UTF-8 byte offset) pairs; raises the LexError of the first unknown character."""
        pairs, offset, start = [], 0, 0
        for match in _LEXEME.finditer(text):
            offset += len(text[start:match.start()].encode())  # the bytes since the last lexeme began
            lexeme, start = match.group(), match.start()
            if _kind(lexeme) == "unknown":
                raise LexError(f"unknown character {lexeme!r}", offset)
            pairs.append((lexeme, offset))
        return pairs

    def _depth(node: Node) -> int:
        """Operators on the longest root-to-leaf path, by an explicit stack."""
        deepest, stack = 0, [(node, 0)]
        while stack:
            node, depth = stack.pop()
            if isinstance(node, Literal):
                deepest = max(deepest, depth)
            else:
                stack += [(node.left, depth + 1), (node.right, depth + 1)]
        return deepest

    class _Parser:
        def __init__(self, text: str):
            self.text = text
            self.lexemes, self.kinds = _lex(text)
            self.pos = 0
            self.nesting = 0  # open parentheses

        def _error(self, message: str) -> ParseError:
            pairs = _offsets(self.text)  # raises the LexError of an unknown character anywhere in text
            if self.pos < len(pairs):
                lexeme, offset = pairs[self.pos]
                return ParseError(f"{message} before {lexeme!r}", offset)
            end = pairs[-1][1] + len(pairs[-1][0]) if pairs else 0
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
            while self.kinds[self.pos] == "star":
                self.pos += 1
                node = Binary("mul", node, self.factor())
            return node

        def factor(self) -> Node:
            pos = self.pos
            kind = self.kinds[pos]
            if kind == "number":
                lexeme = self.lexemes[pos]
                self.pos = pos + 1
                if "." in lexeme:
                    return Literal(float(lexeme))
                try:
                    return Literal(int(lexeme))
                except ValueError:  # an int past Python's limit on digits converted from a string
                    raise ParseError(f"literal of {len(lexeme)} digits is too long",
                                     _offsets(self.text)[pos][1]) from None
            if kind == "lparen":
                if self.nesting == MAX_DEPTH:
                    raise self._error(f"parentheses nested more than {MAX_DEPTH} deep")
                self.pos = pos + 1
                self.nesting += 1
                node = self.expr()  # relations are not allowed inside parentheses
                self.nesting -= 1
                if self.kinds[self.pos] != "rparen":
                    raise self._error("expected ')'")
                self.pos += 1
                return node
            raise self._error("expected a number or '('")

    def parse_text(text: str) -> Node:
        """Text -> Ast; raises LexError or ParseError with the byte offset of the offending character or lexeme."""
        parser = _Parser(text)
        node = parser.relation()
        if len(parser.lexemes) > MAX_DEPTH and _depth(node) > MAX_DEPTH:  # a tree has fewer operators than lexemes
            raise ParseError(f"expression more than {MAX_DEPTH} operators deep", 0)
        return node

    return parse_text, _offsets


def reference_parse(text: str):
    """exprlang.parse_text by the recursive-descent parser: a node, or the same LexError or ParseError."""
    return _recursive_descent()[0](text)


def reference_offsets(text: str) -> list[tuple[str, int]]:
    """The (lexeme, byte offset) pairs of text by the reference lexer, or the LexError of its first unknown character."""
    return _recursive_descent()[1](text)


def ref_partial_sums(arith, seq, n: int) -> tuple[list, int | None]:
    """series.arith_partial_sums by a naive fold: each term located and added in turn.

    So the first error raised is that of the first term that fails, and every
    term is added, however long the sum has stood still.  stationary_at is
    found by checking each k against every later sum.
    """
    carrier = arith.carrier
    acc = carrier.index_of(seq.term(1))
    sums = [carrier.value_at(acc)]
    for k in range(2, n + 1):
        acc = arith.add_index(acc, carrier.index_of(seq.term(k)))
        sums.append(carrier.value_at(acc))
    least = next(k for k in range(1, n + 1) if all(s == sums[-1] for s in sums[k - 1:]))
    return sums, (least if least < n else None)
