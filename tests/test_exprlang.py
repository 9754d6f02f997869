import random

import pytest

from nda import cli
from nda.arith import Arithmetic
from nda.errors import (
    CarrierExhaustedError,
    LexError,
    MultiplicationUnavailableError,
    OffCarrierError,
    ParseError,
)
from nda.exprlang import (
    LT,
    MAX_DEPTH,
    MLL,
    MLLL,
    NUMBER,
    Binary,
    Literal,
    Relation,
    _LEXEME,
    evaluate,
    parse_text,
    tokenize,
)

from reference import atanh_values, ceil_index, f_values, floor_index, ref_sub, reference_parse

POW2 = "projective:pow:2@int:0:100"


@pytest.mark.parametrize("text, char", [("٣+1", "٣"), ("²", "²"), ("1+1٣", "٣")])
def test_non_ascii_digits_are_lex_errors(text, char):
    with pytest.raises(LexError, match=f"unknown character {char!r}"):
        tokenize(text)


@pytest.mark.parametrize("text", ["٣+1", "²"])
def test_non_ascii_digits_exit_3(text, monkeypatch, capsys):
    monkeypatch.delenv("NDA_FORMAT", raising=False)
    assert cli.main(["eval", POW2, text]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("evaluation error: unknown character")


def test_longest_match_relations():
    tokens = tokenize("1<<<2<<3<4")
    assert [(t.kind, t.lexeme, t.position) for t in tokens if t.kind != NUMBER] == [
        (MLLL, "<<<", 1), (MLL, "<<", 5), (LT, "<", 8)]


@pytest.mark.parametrize("text, offset", [("٣x", 0), ("12 + ٣٣ + x", 5)])
def test_lex_error_offset_after_multibyte_character(text, offset):
    # only ASCII is consumed, so the error lands on the first two-byte
    # character at its byte offset; a lexer that consumed '٣' as a digit
    # would blame a later character at an offset counted in characters
    with pytest.raises(LexError, match="'٣'") as exc:
        tokenize(text)
    assert exc.value.offset == offset


def test_addition_folds_left():
    assert parse_text("1+2+3") == Binary("add", Binary("add", Literal(1), Literal(2)), Literal(3))


@pytest.mark.parametrize("text", ["+".join(["1"] * 1500), "(" * 400 + "1" + ")" * 400,
                                  "1 == " + "1*" * 300 + "1"], ids=["chain", "nesting", "relation-side"])
def test_deep_trees_are_refused_before_evaluation(text, monkeypatch):
    for op in ("add_index", "sub_index", "mul_index"):
        monkeypatch.setattr(Arithmetic, op, lambda *args: pytest.fail("evaluated a refused tree"))
    with pytest.raises(ParseError, match="more than 200"):
        parse_text(text)
    monkeypatch.delenv("NDA_FORMAT", raising=False)
    assert cli.main(["eval", POW2, text]) == 3


def test_depth_bound_is_inclusive():
    chain = "+".join(["0"] * 201)  # 200 operators on the left spine
    nested = "(" * 200 + "0" + ")" * 200
    arith = Arithmetic.from_spec(POW2)
    assert evaluate(parse_text(chain), arith) == 0
    assert evaluate(parse_text(nested), arith) == 0
    with pytest.raises(ParseError):
        parse_text(chain + "+0")
    with pytest.raises(ParseError):
        parse_text("(" + nested + ")")


def test_relation_inside_parentheses_rejected():
    with pytest.raises(ParseError, match="expected '\\)'"):
        parse_text("(1 == 1)")


# Messages and offsets as the character-by-character lexer and Token parser gave them, kept byte for byte
GOLDEN_ERRORS = [
    ("", ParseError, "expected a number or '(' at end of input at offset 0", 0),
    ("1 +", ParseError, "expected a number or '(' at end of input at offset 3", 3),
    ("(1", ParseError, "expected ')' at end of input at offset 2", 2),
    ("1 2", ParseError, "expected end of input before '2' at offset 2", 2),
    ("1.", LexError, "unknown character '.' at offset 1", 1),
    ("1..2", LexError, "unknown character '.' at offset 1", 1),
    ("=", LexError, "unknown character '=' at offset 0", 0),
    ("1 = 2", LexError, "unknown character '=' at offset 2", 2),
    ("!", LexError, "unknown character '!' at offset 0", 0),
    (")", ParseError, "expected a number or '(' before ')' at offset 0", 0),
    ("1 <<<< 2", ParseError, "expected a number or '(' before '<' at offset 5", 5),
    ("1 == 2 == 3", ParseError, "expected end of input before '==' at offset 7", 7),
    ("(1 == 1)", ParseError, "expected ')' before '==' at offset 3", 3),
    ("12 + ٣", LexError, "unknown character '٣' at offset 5", 5),
    ("7" * 5000, ParseError, "literal of 5000 digits is too long at offset 0", 0),
    ("(" * 201 + "1" + ")" * 201, ParseError, "parentheses nested more than 200 deep before '(' at offset 200", 200),
    ("+".join(["1"] * 202), ParseError, "expression more than 200 operators deep at offset 0", 0),
]


@pytest.mark.parametrize("text, cls, message, offset", GOLDEN_ERRORS,
                         ids=[repr(text) if len(text) < 20 else f"{len(text)} chars" for text, *_ in GOLDEN_ERRORS])
def test_error_messages_and_offsets_are_golden(text, cls, message, offset, monkeypatch, capsys):
    with pytest.raises(cls) as exc:
        parse_text(text)
    assert (type(exc.value), str(exc.value), exc.value.offset) == (cls, message, offset)
    monkeypatch.delenv("NDA_FORMAT", raising=False)
    assert cli.main(["eval", POW2, text]) == 3
    assert capsys.readouterr() == ("", f"evaluation error: {message}\n")


def test_an_unknown_character_is_raised_before_an_earlier_parse_error():
    # the whole text is lexed before any of it is parsed
    for text, offset in (("1 2 !", 4), (") ٣", 2), ("(" * 201 + "1 = 1", 203), ("7" * 5000 + " x", 5001)):
        with pytest.raises(LexError) as exc:
            parse_text(text)
        assert exc.value.offset == offset


def test_off_carrier_literal_rejected():
    node = parse_text("1.5 + 1")
    with pytest.raises(OffCarrierError, match="literal 1.5 is not on carrier int:0:100"):
        evaluate(node, Arithmetic.from_spec(POW2))


# ----------------------------------------------------------------------
# evaluate against an index-space reference over a seeded corpus
# ----------------------------------------------------------------------

CROSS_CHECK_SPECS = ["projective:pow:2@int:0:100", "dual:pow:2@int:0:100", "projective:exp2m1@int:0:100",
                     "dual:exp2m1@int:0:100", "projective:atanh:1@grid:0:1:0.01"]
_OP_TEXT = {"add": "+", "sub": "-", "mul": "*"}
_PRECEDENCE = {"add": 1, "sub": 1, "mul": 2}
_REL_TEXT = {"eq": "==", "neq": "!=", "lt": "<", "mll": "<<", "mlll": "<<<"}
_OFF_CARRIER = {"int": ["101", "1000", "0.5", "2.25"], "grid": ["0.005", "1.01", "2", "0.123"]}


class IndexReference:
    """An expression's index by linear scan over directly evaluated f, operands left to right.

    Errors are the classes evaluate raises: a dual sum or product past f(top)
    exhausts the carrier, and '*' needs f(1) = 1.
    """

    def __init__(self, spec: str):
        head, _, carrier = spec.partition("@")
        self.kind, _, name = head.partition(":")
        self.step = 0.01 if carrier.startswith("grid") else None
        self.fvals = atanh_values(1.0, 0.01, 101) if name == "atanh:1" else f_values(name, 101)
        self.multiplicative = self.fvals[1 if self.step is None else 100] == 1

    def value(self, i: int):
        return i if self.step is None else i * self.step

    def apply(self, op: str, i: int, j: int) -> int:
        if op == "sub":
            return ref_sub(self.fvals, self.kind, i, j)
        fa, fb = self.fvals[i], self.fvals[j]
        if op == "add":
            target = fa + fb
        elif not self.multiplicative:
            raise MultiplicationUnavailableError
        else:
            target = 0 if fa == 0 or fb == 0 else fa * fb
        if self.kind == "projective":
            return floor_index(self.fvals, target)
        k = ceil_index(self.fvals, target)
        if k is None:
            raise CarrierExhaustedError
        return k

    def index(self, tree) -> int:
        if tree[0] == "lit":
            return tree[1]
        if tree[0] == "off":
            raise OffCarrierError
        left = self.index(tree[1])
        return self.apply(tree[0], left, self.index(tree[2]))

    def evaluate(self, tree):
        if tree[0] != "rel":
            return self.value(self.index(tree))
        _, rel, left, right = tree
        a = self.index(left)
        b = self.index(right)
        if rel == "eq":
            return a == b
        if rel == "neq":
            return a != b
        if rel == "lt":
            return a < b
        return self.apply("add" if rel == "mll" else "mul", b, a) == b


def _random_tree(rng: random.Random, grid: bool, depth: int):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.04:
            return ("off", rng.choice(_OFF_CARRIER["grid" if grid else "int"]))
        i = rng.choice([0, 1, 100, rng.randint(0, 8), rng.randint(0, 100)])
        if grid:
            text = f"{i / 100:.2f}" if rng.random() < 0.8 else f"{i / 100:g}"
        else:
            text = f"{i}.0" if rng.random() < 0.05 else str(i)
        return ("lit", i, text)
    return (rng.choice(list(_OP_TEXT)), _random_tree(rng, grid, depth - 1), _random_tree(rng, grid, depth - 1))


def _text(tree) -> str:
    """The tree with the fewest parentheses the left-associative grammar needs."""
    if tree[0] == "rel":
        return f"{_text(tree[2])} {_REL_TEXT[tree[1]]} {_text(tree[3])}"
    if tree[0] in ("lit", "off"):
        return tree[-1]
    op, left, right = tree
    left_text, right_text = _text(left), _text(right)
    if left[0] in _OP_TEXT and _PRECEDENCE[left[0]] < _PRECEDENCE[op]:
        left_text = f"({left_text})"
    if right[0] in _OP_TEXT and _PRECEDENCE[right[0]] <= _PRECEDENCE[op]:
        right_text = f"({right_text})"
    return f"{left_text} {_OP_TEXT[op]} {right_text}"


def _node(tree):
    """The tree as the parser builds it."""
    if tree[0] == "rel":
        return Relation(tree[1], _node(tree[2]), _node(tree[3]))
    if tree[0] in ("lit", "off"):
        text = tree[-1]
        return Literal(float(text) if "." in text else int(text))
    return Binary(tree[0], _node(tree[1]), _node(tree[2]))


def cross_check_corpus(per_spec: int = 400) -> list[tuple[str, tuple]]:
    """(spec, tree) pairs: expressions up to 4 operators deep, a third of them under a root relation."""
    rng = random.Random(20011108)
    corpus = []
    for spec in CROSS_CHECK_SPECS:
        grid = "@grid" in spec
        for _ in range(per_spec):
            tree = _random_tree(rng, grid, rng.randint(0, 4))
            if rng.random() < 0.35:
                tree = ("rel", rng.choice(list(_REL_TEXT)), tree, _random_tree(rng, grid, rng.randint(0, 2)))
            corpus.append((spec, tree))
    return corpus


def _outcome(thunk):
    """(type, value) of a result, so that True is not 1; the class of a documented error."""
    try:
        result = thunk()
    except (OffCarrierError, CarrierExhaustedError, MultiplicationUnavailableError) as exc:
        return type(exc)
    return type(result), result


def test_evaluate_matches_the_index_reference():
    references = {spec: IndexReference(spec) for spec in CROSS_CHECK_SPECS}
    arithmetics = {spec: Arithmetic.from_spec(spec) for spec in CROSS_CHECK_SPECS}
    seen = set()
    for spec, tree in cross_check_corpus():
        text = _text(tree)
        node = parse_text(text)
        assert node == _node(tree), text
        expected = _outcome(lambda: references[spec].evaluate(tree))
        assert _outcome(lambda: evaluate(node, arithmetics[spec])) == expected, (spec, text)
        if expected is OffCarrierError:
            with pytest.raises(OffCarrierError, match=f"^literal .+ is not on carrier {spec.partition('@')[2]}$"):
                evaluate(node, arithmetics[spec])
        seen.add(expected if isinstance(expected, type) else expected[0])
        seen.update(op for op in _OP_TEXT if _OP_TEXT[op] in text)
        if tree[0] == "rel":
            seen.add(tree[1])
    # every operator, relation, result type and documented error was met
    assert seen == {int, float, bool, OffCarrierError, CarrierExhaustedError, MultiplicationUnavailableError,
                    *_OP_TEXT, *_REL_TEXT}


def _whitespace_variants(text: str) -> tuple[str, ...]:
    return text, text.replace(" ", "\t"), text.replace(" ", "\n"), text.replace(" ", " \r\n\t ")


def test_lexemes_agree_with_tokens():
    for spec, tree in cross_check_corpus():
        for variant in _whitespace_variants(_text(tree)):
            tokens = tokenize(variant)
            assert _LEXEME.findall(variant) == [t.lexeme for t in tokens], variant
            assert all(variant.startswith(t.lexeme, t.position) for t in tokens)
            assert parse_text(variant) == _node(tree), variant


# ----------------------------------------------------------------------
# parse_text against the recursive-descent reference parser
# ----------------------------------------------------------------------

_STRAYS = ["x", "=", "!", ".", "_", "٣", "²", "é", "\u00a0"]


def _mutant(rng: random.Random, lexemes: list[str]) -> str:
    """A valid expression's lexemes after one random edit, joined mostly by spaces and sometimes by nothing."""
    lexemes = list(lexemes)
    at = rng.randrange(len(lexemes) + 1)
    edit = rng.randrange(8)
    if edit == 0 and len(lexemes) > 1:  # a token dropped
        del lexemes[min(at, len(lexemes) - 1)]
    elif edit == 1 and lexemes:  # a token duplicated
        lexemes.insert(at, lexemes[min(at, len(lexemes) - 1)])
    elif edit == 2 and len(lexemes) > 1:  # two tokens swapped
        i, j = rng.sample(range(len(lexemes)), 2)
        lexemes[i], lexemes[j] = lexemes[j], lexemes[i]
    elif edit == 3:  # an unbalanced parenthesis
        lexemes.insert(at, rng.choice("()"))
    elif edit == 4:  # a stray relation
        lexemes.insert(at, rng.choice(list(_REL_TEXT.values())))
    elif edit == 5:  # a relation doubled, or a second one, before a relation if there is one
        rel = rng.choice(list(_REL_TEXT.values()))
        i = rng.choice([i for i, lexeme in enumerate(lexemes) if lexeme in _REL_TEXT.values()] or [at])
        lexemes[i:i] = rng.choice([[rel, rel], [rel, "1"]])
    elif edit == 6:  # an unknown character, alone or stuck to a number
        lexemes.insert(at, rng.choice(_STRAYS))
    else:  # a parenthesised copy, with a relation inside it half the time
        inner = [*lexemes[at:], *rng.choice([[], ["==", "1"]])]
        lexemes[at:] = ["(", *inner, ")"]
    return ("" if rng.random() < 0.15 else " ").join(lexemes)


def _bound_cases() -> list[str]:
    """Nestings and operator chains around MAX_DEPTH, alone, unbalanced, under a relation and with a stray."""
    cases = []
    for n in range(MAX_DEPTH - 3, MAX_DEPTH + 4):
        for close in (n - 1, n, n + 1):
            cases += ["(" * n + "1" + ")" * close, "1+(" * n + "1" + ")" * close, "(1*" * n + "1" + ")" * close]
        chain = "+".join(["1"] * (n + 1))
        cases += [chain, "-".join(["2"] * (n + 1)), "*".join(["1"] * (n + 1)), "1*2+" * n + "1", "1 == " + chain,
                  chain + " < 1", chain + " 1", chain + " +", chain + " x", "(" * n + "1 == 1" + ")" * n,
                  "(" * n + "1" + ")" * n + " == " + "(" * n + "1" + ")" * n, "(" * n + "1 )" + "=" + ")" * n,
                  "(" * n + "1" + ")" * n + ")", "(" * n + ")" * n, "(" * n + "٣" + ")" * n]
    return cases + ["7" * 5000, "1 + " + "7" * 5000, "(" + "7" * 5000 + " == 1", "7" * 5000 + " x"]


def _parse_outcome(parse, text: str):
    """A tree's repr, which tells 1 from 1.0, or an error's class, message and offset."""
    try:
        return repr(parse(text))
    except (LexError, ParseError) as exc:
        return type(exc), str(exc), exc.offset


def test_parse_text_matches_the_recursive_descent_reference():
    rng = random.Random(18)
    texts = list(_bound_cases())
    for _, tree in cross_check_corpus():
        text = _text(tree)
        texts += _whitespace_variants(text)
        lexemes = _LEXEME.findall(text)
        texts += [_mutant(rng, lexemes) for _ in range(7)]
    assert len(texts) >= 20_000
    stems = ("expected a number or '('", "expected ')'", "expected end of input", "parentheses nested more than",
             "expression more than", "literal of")
    seen = set()
    for text in texts:
        outcome = _parse_outcome(parse_text, text)
        assert outcome == _parse_outcome(reference_parse, text), text
        if isinstance(outcome, str):
            seen.add("node")
        else:
            seen.add(outcome[0])
            seen.update(stem for stem in stems if outcome[1].startswith(stem))
    # a tree, a LexError and every ParseError message were met
    assert seen == {"node", LexError, ParseError, *stems}


def test_nodes_are_tuples():
    assert Literal(1) == (1,)
    assert parse_text("1 + 2 < 3") == ("lt", ("add", (1,), (2,)), (3,))


def test_expressions_do_not_call_the_value_level_ops(monkeypatch):
    for op in ("add", "mul"):
        monkeypatch.setattr(Arithmetic, op, lambda *args: pytest.fail("went through a value-level op"))
    arith = Arithmetic.from_spec(POW2)
    cases = {"2 + 2": 2, "7 - 3": 6, "2 * 3": 6, "(1 + 1) * 2 - 1": 1, "2 == 2": True, "1 != 2": True,
             "2 < 1": False, "1 << 5": True, "4 << 5": False, "1 <<< 9": True, "2 <<< 9": False}
    assert {text: evaluate(parse_text(text), arith) for text in cases} == cases
